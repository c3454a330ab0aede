type t = {
  net : Net.Network.t;
  flow : Net.Packet.flow;
  src : Net.Packet.addr;
  dst : Net.Packet.addr;
  data_size : int;
  rate : float;
  mutable next_seq : int;
  mutable sent : int;
  mutable delivered : int;
  mutable meas_time : float;
  mutable meas_sent : int;
  mutable meas_delivered : int;
}

let now t = Net.Network.now t.net

let reset_measurement t =
  t.meas_time <- now t;
  t.meas_sent <- t.sent;
  t.meas_delivered <- t.delivered

let span t = now t -. t.meas_time

let send_rate t =
  let dt = span t in
  if dt <= 0.0 then 0.0 else float_of_int (t.sent - t.meas_sent) /. dt

let delivered_rate t =
  let dt = span t in
  if dt <= 0.0 then 0.0 else float_of_int (t.delivered - t.meas_delivered) /. dt

let send_data t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.sent <- t.sent + 1;
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src
      ~dst:(Net.Packet.Unicast t.dst) ~size:t.data_size
      ~payload:(Tcp.Wire.Tcp_data { seq; sent_at = now t })
  in
  Net.Network.send t.net pkt

let create ~net ~src ~dst ?(rate = 1000.0) ?(data_size = Tcp.Wire.data_size)
    ?(start_at = 0.0) () =
  if rate <= 0.0 then invalid_arg "Flood.create: non-positive rate";
  let flow = Net.Network.fresh_flow net in
  let t =
    {
      net;
      flow;
      src;
      dst;
      data_size;
      rate;
      next_seq = 0;
      sent = 0;
      delivered = 0;
      meas_time = Net.Network.now net;
      meas_sent = 0;
      meas_delivered = 0;
    }
  in
  (* Sink: count arrivals, never acknowledge, never slow down. *)
  Net.Node.attach (Net.Network.node net dst) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Tcp.Wire.Tcp_data _ -> t.delivered <- t.delivered + 1
      | _ -> ());
  let sched = Net.Network.scheduler net in
  let rec pace () =
    send_data t;
    ignore (Sim.Scheduler.schedule_after sched (1.0 /. t.rate) pace)
  in
  ignore (Sim.Scheduler.schedule_after sched start_at pace);
  t
