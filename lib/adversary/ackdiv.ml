type params = {
  split : int;
  init_cwnd : float;
  max_cwnd : float;
  max_burst : int;
  data_size : int;
  min_rto : float;
}

let default_params =
  {
    split = 4;
    init_cwnd = 1.0;
    max_cwnd = 128.0;
    max_burst = 4;
    data_size = Tcp.Wire.data_size;
    min_rto = 1.0;
  }

type t = {
  net : Net.Network.t;
  params : params;
  flow : Net.Packet.flow;
  src : Net.Packet.addr;
  dst : Net.Packet.addr;
  rto : Tcp.Rto.t;
  mutable cwnd : float;
  mutable ssthresh : float;
  mutable next_seq : int;
  mutable high_ack : int;
  mutable expected : int;  (* colluding receiver's in-order point *)
  mutable sent : int;
  mutable timer : Sim.Scheduler.event_id option;
  mutable timeout_thunk : unit -> unit;
  mutable meas_time : float;
  mutable meas_sent : int;
  mutable meas_delivered : int;
}

let now t = Net.Network.now t.net

let reset_measurement t =
  t.meas_time <- now t;
  t.meas_sent <- t.sent;
  t.meas_delivered <- t.high_ack

let span t = now t -. t.meas_time

let send_rate t =
  let dt = span t in
  if dt <= 0.0 then 0.0 else float_of_int (t.sent - t.meas_sent) /. dt

let delivered_rate t =
  let dt = span t in
  if dt <= 0.0 then 0.0
  else float_of_int (t.high_ack - t.meas_delivered) /. dt

let sched t = Net.Network.scheduler t.net

let cancel_timer t =
  match t.timer with
  | None -> ()
  | Some id ->
      Sim.Scheduler.cancel (sched t) id;
      t.timer <- None

let arm_timer t =
  cancel_timer t;
  t.timer <-
    Some
      (Sim.Scheduler.schedule_after (sched t) (Tcp.Rto.timeout t.rto)
         t.timeout_thunk)

let send_data t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.sent <- t.sent + 1;
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src
      ~dst:(Net.Packet.Unicast t.dst) ~size:t.params.data_size
      ~payload:(Tcp.Wire.Tcp_data { seq; sent_at = now t })
  in
  Net.Network.send t.net pkt

let try_send t =
  let burst = ref 0 in
  while
    !burst < t.params.max_burst
    && t.next_seq - t.high_ack < int_of_float t.cwnd
  do
    send_data t;
    incr burst
  done;
  if t.next_seq > t.high_ack then arm_timer t

(* Growth per ack ARRIVAL, not per packet newly acknowledged: the
   pre-ABC (RFC 3465) bug ack division exploits.  The colluding
   receiver below sends [split] acks per data packet, so this sender's
   window grows [split] times faster than an honest one. *)
let grow_cwnd t =
  if t.cwnd < t.ssthresh then t.cwnd <- t.cwnd +. 1.0
  else t.cwnd <- t.cwnd +. (1.0 /. t.cwnd);
  if t.cwnd > t.params.max_cwnd then t.cwnd <- t.params.max_cwnd

let on_ack t ~cum_ack ~echo =
  grow_cwnd t;
  if cum_ack > t.high_ack then begin
    t.high_ack <- cum_ack;
    if echo >= 0.0 then Tcp.Rto.sample t.rto (now t -. echo);
    if t.next_seq > t.high_ack then arm_timer t else cancel_timer t
  end;
  try_send t

let on_timeout t =
  t.timer <- None;
  if t.next_seq > t.high_ack then begin
    t.ssthresh <- Stdlib.max 2.0 (t.cwnd /. 2.0);
    t.cwnd <- 1.0;
    (* Go-back-N: rewind and resend from the last cumulative point. *)
    t.next_seq <- t.high_ack;
    Tcp.Rto.backoff t.rto;
    try_send t
  end

(* Colluding receiver: acknowledge every data arrival [split] times.
   Go-back-N delivery — out-of-order data only produces (split)
   duplicate acks at the current in-order point. *)
let on_data t ~seq ~sent_at =
  if seq = t.expected then t.expected <- t.expected + 1;
  for _ = 1 to t.params.split do
    let pkt =
      Net.Network.make_packet t.net ~flow:t.flow ~src:t.dst
        ~dst:(Net.Packet.Unicast t.src) ~size:Tcp.Wire.ack_size
        ~payload:
          (Tcp.Wire.Tcp_ack
             {
               cum_ack = t.expected;
               blocks = [];
               echo = sent_at;
               ece = false;
               rwnd = Tcp.Wire.no_rwnd;
             })
    in
    Net.Network.send t.net pkt
  done

let create ~net ~src ~dst ?(params = default_params) ?(start_at = 0.0) () =
  if params.split < 1 then invalid_arg "Ackdiv.create: split < 1";
  let flow = Net.Network.fresh_flow net in
  let t =
    {
      net;
      params;
      flow;
      src;
      dst;
      rto = Tcp.Rto.create ~min_rto:params.min_rto ();
      cwnd = params.init_cwnd;
      ssthresh = params.max_cwnd;
      next_seq = 0;
      high_ack = 0;
      expected = 0;
      sent = 0;
      timer = None;
      timeout_thunk = (fun () -> ());
      meas_time = Net.Network.now net;
      meas_sent = 0;
      meas_delivered = 0;
    }
  in
  t.timeout_thunk <- (fun () -> on_timeout t);
  Net.Node.attach (Net.Network.node net src) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Tcp.Wire.Tcp_ack { cum_ack; echo; _ } -> on_ack t ~cum_ack ~echo
      | _ -> ());
  Net.Node.attach (Net.Network.node net dst) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Tcp.Wire.Tcp_data { seq; sent_at } -> on_data t ~seq ~sent_at
      | _ -> ());
  ignore
    (Sim.Scheduler.schedule_after (Net.Network.scheduler net) start_at
       (fun () -> try_send t));
  t
