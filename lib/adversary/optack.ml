type t = {
  net : Net.Network.t;
  node : Net.Packet.addr;
  flow : Net.Packet.flow;
  peer : Net.Packet.addr;
  lookahead : int;
  mutable max_seen : int;
}

let claimed t = t.max_seen + t.lookahead

let send_ack t ~echo =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.node
      ~dst:(Net.Packet.Unicast t.peer) ~size:Tcp.Wire.ack_size
      ~payload:
        (Tcp.Wire.Tcp_ack
           {
             cum_ack = claimed t;
             blocks = [];
             echo;
             ece = false;
             rwnd = Tcp.Wire.no_rwnd;
           })
  in
  Net.Network.send t.net pkt

let on_data t ~seq ~sent_at =
  if seq + 1 > t.max_seen then t.max_seen <- seq + 1;
  send_ack t ~echo:sent_at

let hijack ~net ~node ~flow ~peer ?(lookahead = 0) () =
  if lookahead < 0 then invalid_arg "Optack.hijack: negative lookahead";
  let t =
    {
      net;
      node;
      flow;
      peer;
      lookahead;
      max_seen = 0;
    }
  in
  (* Replaces whatever honest receiver was attached for this flow. *)
  Net.Node.attach (Net.Network.node net node) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Tcp.Wire.Tcp_data { seq; sent_at } -> on_data t ~seq ~sent_at
      | Tcp.Wire.Tcp_probe { seq = _; sent_at } -> send_ack t ~echo:sent_at
      | _ -> ());
  t
