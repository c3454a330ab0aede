type t = {
  net : Net.Network.t;
  node : Net.Node.t;
  flow : Net.Packet.flow;
  sender : Net.Packet.addr;
  period : float;
  mutable received_total : int;
  mutable meas_base : int;
  mutable meas_time : float;
  (* per-period accounting *)
  mutable period_received : int;
  mutable low_seq : int;  (* highest seq seen before this period *)
  mutable high_seq : int;  (* highest seq seen so far *)
  mutable last_loss_rate : float;
}

let received_total t = t.received_total

let delivered_rate t ~since =
  let span = Net.Network.now t.net -. since in
  if span <= 0.0 then 0.0
  else float_of_int (t.received_total - t.meas_base) /. span

let reset_measurement t ~now =
  t.meas_base <- t.received_total;
  t.meas_time <- now

let last_loss_rate t = t.last_loss_rate

let on_data t ~seq =
  t.received_total <- t.received_total + 1;
  t.period_received <- t.period_received + 1;
  if seq > t.high_seq then t.high_seq <- seq

let send_report t =
  let expected = t.high_seq - t.low_seq in
  let received = Stdlib.min t.period_received expected in
  let loss_rate =
    if expected <= 0 then 0.0
    else 1.0 -. (float_of_int received /. float_of_int expected)
  in
  t.last_loss_rate <- loss_rate;
  t.low_seq <- t.high_seq;
  t.period_received <- 0;
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:(Net.Node.id t.node)
      ~dst:(Net.Packet.Unicast t.sender) ~size:Wire.report_size
      ~payload:
        (Wire.Rate_report
           { rcvr = Net.Node.id t.node; received; expected; loss_rate })
  in
  Net.Network.send t.net pkt

let create ~net ~node ~flow ~sender ~period =
  if period <= 0.0 then invalid_arg "Report_receiver.create: bad period";
  let node = Net.Network.node net node in
  let t =
    {
      net;
      node;
      flow;
      sender;
      period;
      received_total = 0;
      meas_base = 0;
      meas_time = Net.Network.now net;
      period_received = 0;
      low_seq = -1;
      high_seq = -1;
      last_loss_rate = 0.0;
    }
  in
  Net.Node.attach node ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Rate_data { seq; _ } -> on_data t ~seq
      | _ -> ());
  let sched = Net.Network.scheduler net in
  let rec tick () =
    send_report t;
    ignore (Sim.Scheduler.schedule_after sched t.period tick)
  in
  (* Stagger the first report so receivers don't synchronise. *)
  let stagger = Sim.Rng.float (Net.Network.fork_rng net) period in
  ignore (Sim.Scheduler.schedule_after sched (period +. stagger) tick);
  t

module For_testing = struct
  let received_total = received_total
  let last_loss_rate = last_loss_rate
end
