type t = {
  net : Net.Network.t;
  src : Net.Packet.addr;
  data_size : int;
  mutable rst_sent : int;
}

let rst_sent t = t.rst_sent

let create ~net ~src ?(data_size = Tcp.Wire.data_size) () =
  { net; src; data_size; rst_sent = 0 }

let rst t ~flow ~dst ~seq =
  t.rst_sent <- t.rst_sent + 1;
  let pkt =
    Net.Network.make_packet t.net ~flow ~src:t.src
      ~dst:(Net.Packet.Unicast dst) ~size:Tcp.Wire.ack_size
      ~payload:(Tcp.Wire.Tcp_rst { seq })
  in
  Net.Network.send t.net pkt

let data t ~flow ~dst ~seq =
  let pkt =
    Net.Network.make_packet t.net ~flow ~src:t.src
      ~dst:(Net.Packet.Unicast dst) ~size:t.data_size
      ~payload:
        (Tcp.Wire.Tcp_data { seq; sent_at = Net.Network.now t.net })
  in
  Net.Network.send t.net pkt
