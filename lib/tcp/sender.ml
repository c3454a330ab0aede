type params = {
  init_cwnd : float;
  init_ssthresh : float;
  dupthresh : int;
  max_burst : int;
  max_cwnd : float;
  data_size : int;
  min_rto : float;
  limit : int option;
  handshake : bool;
  wscale : int;
  window : Receiver.window option;
  karn : bool;
}

let default_params =
  {
    init_cwnd = 1.0;
    init_ssthresh = 64.0;
    dupthresh = 3;
    max_burst = 4;
    max_cwnd = 128.0;
    data_size = Wire.data_size;
    min_rto = 1.0;
    limit = None;
    handshake = false;
    wscale = 0;
    window = None;
    karn = false;
  }

(* Persist-timer probes back off like the RTO but cap at NS2's 60 s. *)
let persist_max = 60.0

(* Cached observability handles (see [Obs.Registry]); sampling happens
   at ack/timeout processing points only, never from scheduled events,
   so instrumented and bare runs are bit-identical. *)
type taps = {
  reg : Obs.Registry.t;
  source : string;
  cwnd_s : Obs.Series.t;
  bytes_s : Obs.Series.t;
  srtt_s : Obs.Series.t;
  cuts_c : Obs.Registry.counter;
  ssthresh_g : Obs.Registry.gauge;
}

(* The window is an all-float record, stored unboxed: cwnd changes on
   nearly every ack, and as a float field of the mixed record [t] each
   write would box. *)
type window = { mutable cwnd : float; mutable ssthresh : float }

(* Per-ack work allocates nothing of its own beyond the packets it
   sends and the boxed times it hands to the scheduler and the
   statistics: timers are event ids with [-1] for none, the peer's
   destination is built once, and {!Scoreboard.process_ack} returns a
   count. *)
type t = {
  net : Net.Network.t;
  params : params;
  src : Net.Packet.addr;
  dst : Net.Packet.addr;
  dst_unicast : Net.Packet.dest;
  flow : Net.Packet.flow;
  sb : Scoreboard.t;
  rto : Rto.t;
  receiver : Receiver.t;
  w : window;
  mutable in_recovery : bool;
  mutable recover_point : int;
  mutable timer : Sim.Scheduler.event_id;  (* -1 = not armed *)
  (* One shared closure for every RTO (re)arm — the timer is re-armed
     on each delivering ack, so a per-arm closure is hot-path litter. *)
  mutable timeout_thunk : unit -> unit;
  mutable start_event : Sim.Scheduler.event_id option;
  (* connection establishment (params.handshake) *)
  mutable established : bool;
  mutable syn_sent : int;
  mutable neg_wscale : int;
  (* flow control: last advertised window field; Wire.no_rwnd = none *)
  mutable rwnd_field : int;
  mutable persist_timer : Sim.Scheduler.event_id;  (* -1 = not armed *)
  mutable persist_thunk : unit -> unit;
  mutable persist_shift : int;
  mutable zero_window_probes : int;
  (* RFC 5961-style validation: acks for never-sent data, dropped *)
  mutable ghost_acks : int;
  (* statistics *)
  cwnd_avg : Stats.Time_avg.t;
  rtt : Stats.Welford.t ref;
  mutable sent_new : int;
  mutable retransmits : int;
  mutable window_cuts : int;
  mutable timeouts : int;
  (* measurement baseline (reset_measurement) *)
  mutable meas_time : float;
  mutable meas_delivered : int;
  mutable meas_sent_new : int;
  mutable meas_retransmits : int;
  mutable meas_window_cuts : int;
  mutable meas_timeouts : int;
  mutable completed_at : float option;
  mutable taps : taps option;
}

let flow t = t.flow

let cwnd t = t.w.cwnd

let delivered t = Scoreboard.high_ack t.sb

let window_cuts t = t.window_cuts

let timeouts t = t.timeouts

let retransmits t = t.retransmits

let sent_new t = t.sent_new

let rtt_stats t = !(t.rtt)

let receiver t = t.receiver

let established t = t.established

let syn_sent t = t.syn_sent

let negotiated_wscale t = t.neg_wscale

let ghost_acks t = t.ghost_acks

let zero_window_probes t = t.zero_window_probes

let now t = Net.Network.now t.net

let local_options t =
  Options.make
    ~mss:(Stdlib.min t.params.data_size 0xFFFF)
    ~wscale:t.params.wscale ~sack_ok:true

(* Peer receive window in packets; no advertisement means unlimited
   (the pre-hardening behavior, and the honest default). *)
let rwnd_pkts t =
  if t.rwnd_field = Wire.no_rwnd then max_int
  else t.rwnd_field lsl t.neg_wscale

(* lint: hot ack_in_window -- runs once per received ack before any
   scoreboard work; pure integer compares, no allocation *)
let ack_in_window t ~cum_ack = cum_ack <= Scoreboard.next_seq t.sb

(* Typed clamps: [if a >= b then a else b] is exactly [Stdlib.max a b]
   on floats, NaN and signed zeros included, without boxing both
   arguments for the polymorphic compare. *)
let at_least_one v = if 1.0 >= v then 1.0 else v

let set_cwnd t value =
  let max_cwnd = t.params.max_cwnd in
  let value = at_least_one (if value <= max_cwnd then value else max_cwnd) in
  t.w.cwnd <- value;
  Stats.Time_avg.update t.cwnd_avg ~time:(now t) ~value

let halved_ssthresh t =
  let half = t.w.cwnd /. 2.0 in
  t.w.ssthresh <- (if 2.0 >= half then 2.0 else half)

(* One aligned (cwnd, bytes_acked) probe: both series get a sample at
   every call point, so their decimation schedules — and therefore
   their sample times — stay identical and exporters can zip them. *)
let probe_flow t =
  match t.taps with
  | None -> ()
  | Some taps ->
      let time = now t in
      Obs.Series.add taps.cwnd_s ~time t.w.cwnd;
      Obs.Series.add taps.bytes_s ~time
        (float_of_int (delivered t * t.params.data_size));
      Obs.Registry.set taps.ssthresh_g t.w.ssthresh

let probe_cut t =
  match t.taps with
  | None -> ()
  | Some taps ->
      Obs.Registry.incr taps.cuts_c;
      Obs.Registry.emit taps.reg ~time:(now t) ~source:taps.source
        ~event:"window_cut" ~value:t.w.cwnd

let avg_cwnd t = Stats.Time_avg.average t.cwnd_avg ~upto:(now t)

let reset_measurement t =
  Stats.Time_avg.reset t.cwnd_avg ~start:(now t) ~value:t.w.cwnd;
  t.rtt := Stats.Welford.create ();
  t.meas_time <- now t;
  t.meas_delivered <- delivered t;
  t.meas_sent_new <- t.sent_new;
  t.meas_retransmits <- t.retransmits;
  t.meas_window_cuts <- t.window_cuts;
  t.meas_timeouts <- t.timeouts

type snapshot = {
  time : float;
  delivered : int;
  sent_new : int;
  retransmits : int;
  window_cuts : int;
  timeouts : int;
  cwnd_now : float;
  cwnd_avg : float;
  rtt_avg : float;
  throughput : float;
  send_rate : float;
}

let snapshot t =
  let span = now t -. t.meas_time in
  let delivered_span = delivered t - t.meas_delivered in
  let sent_span =
    t.sent_new - t.meas_sent_new + t.retransmits - t.meas_retransmits
  in
  let rate n = if span <= 0.0 then 0.0 else float_of_int n /. span in
  {
    time = now t;
    delivered = delivered_span;
    sent_new = t.sent_new - t.meas_sent_new;
    retransmits = t.retransmits - t.meas_retransmits;
    window_cuts = t.window_cuts - t.meas_window_cuts;
    timeouts = t.timeouts - t.meas_timeouts;
    cwnd_now = t.w.cwnd;
    cwnd_avg = avg_cwnd t;
    rtt_avg = Stats.Welford.mean !(t.rtt);
    throughput = rate delivered_span;
    send_rate = rate sent_span;
  }

let cancel_timer t =
  if t.timer >= 0 then begin
    Sim.Scheduler.cancel (Net.Network.scheduler t.net) t.timer;
    t.timer <- -1
  end

let cancel_persist t =
  if t.persist_timer >= 0 then begin
    Sim.Scheduler.cancel (Net.Network.scheduler t.net) t.persist_timer;
    t.persist_timer <- -1
  end

let send_data t ~seq ~rexmit =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src ~dst:t.dst_unicast
      ~size:t.params.data_size
      ~payload:(Wire.Tcp_data { seq; sent_at = now t })
  in
  if rexmit then t.retransmits <- t.retransmits + 1
  else t.sent_new <- t.sent_new + 1;
  Net.Network.send t.net pkt

let can_send_new t =
  (match t.params.limit with
  | None -> true
  | Some limit -> Scoreboard.next_seq t.sb < limit)
  (* Flow control: unacknowledged data must fit the peer window. *)
  && Scoreboard.in_flight_window t.sb < rwnd_pkts t

let rec arm_timer t =
  if t.timer < 0 && t.completed_at = None then
    t.timer <-
      Sim.Scheduler.schedule_after
        (Net.Network.scheduler t.net)
        (Rto.timeout t.rto) t.timeout_thunk

and restart_timer t =
  cancel_timer t;
  if Scoreboard.in_flight_window t.sb > 0 then arm_timer t

and try_send t =
  if t.established then begin
    let budget = ref t.params.max_burst in
    let blocked = ref false in
    while
      (not !blocked) && !budget > 0
      && Scoreboard.pipe t.sb < int_of_float t.w.cwnd
    do
      (match Scoreboard.next_retransmit t.sb with
      | Some seq ->
          Scoreboard.mark_retransmitted t.sb seq;
          send_data t ~seq ~rexmit:true
      | None ->
          if can_send_new t then begin
            let seq = Scoreboard.register_send t.sb in
            send_data t ~seq ~rexmit:false
          end
          else blocked := true);
      decr budget
    done;
    if Scoreboard.in_flight_window t.sb > 0 then arm_timer t
    else if rwnd_pkts t = 0 && t.completed_at = None then
      (* Zero window and nothing in flight: only a probe can solicit
         the reopening advertisement (the peer has nothing to ack). *)
      arm_persist t
  end

and arm_persist t =
  if t.persist_timer < 0 && t.completed_at = None then begin
    let backed_off =
      Rto.timeout t.rto *. (2.0 ** float_of_int t.persist_shift)
    in
    t.persist_timer <-
      Sim.Scheduler.schedule_after
        (Net.Network.scheduler t.net)
        (if backed_off <= persist_max then backed_off else persist_max)
        t.persist_thunk
  end

and on_persist t =
  if t.established && t.completed_at = None && rwnd_pkts t = 0 then begin
    let pkt =
      Net.Network.make_packet t.net ~flow:t.flow ~src:t.src ~dst:t.dst_unicast
        ~size:Wire.ack_size
        ~payload:
          (Wire.Tcp_probe { seq = Scoreboard.next_seq t.sb; sent_at = now t })
    in
    Net.Network.send t.net pkt;
    t.zero_window_probes <- t.zero_window_probes + 1;
    if t.persist_shift < 16 then t.persist_shift <- t.persist_shift + 1;
    arm_persist t
  end

and send_syn t =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src ~dst:t.dst_unicast
      ~size:Wire.ack_size
      ~payload:
        (Wire.Tcp_syn
           { options = Options.encode (local_options t); sent_at = now t })
  in
  t.syn_sent <- t.syn_sent + 1;
  Net.Network.send t.net pkt;
  arm_timer t

and on_timeout t =
  if not t.established then begin
    (* SYN retransmission with exponential backoff. *)
    if t.completed_at = None then begin
      Rto.backoff t.rto;
      send_syn t
    end
  end
  else begin
    (* Timeout: halve ssthresh, collapse to one packet, resend from the
       cumulative ack point. *)
    if Scoreboard.in_flight_window t.sb > 0 then begin
      t.timeouts <- t.timeouts + 1;
      t.window_cuts <- t.window_cuts + 1;
      halved_ssthresh t;
      set_cwnd t 1.0;
      probe_cut t;
      probe_flow t;
      Rto.backoff t.rto;
      ignore (Scoreboard.mark_all_lost t.sb);
      t.in_recovery <- false;
      t.recover_point <- Scoreboard.next_seq t.sb
    end;
    try_send t
  end

let enter_recovery t =
  t.in_recovery <- true;
  t.recover_point <- Scoreboard.next_seq t.sb;
  t.window_cuts <- t.window_cuts + 1;
  halved_ssthresh t;
  set_cwnd t t.w.ssthresh;
  probe_cut t

let grow_window t newly =
  for _ = 1 to newly do
    let w = t.w in
    if w.cwnd < w.ssthresh then set_cwnd t (w.cwnd +. 1.0)
    else set_cwnd t (w.cwnd +. (1.0 /. w.cwnd))
  done

let check_completion t =
  match (t.params.limit, t.completed_at) with
  | Some limit, None when Scoreboard.high_ack t.sb >= limit ->
      t.completed_at <- Some (now t);
      cancel_timer t;
      cancel_persist t
  | _ -> ()

let on_ack t ~cum_ack ~blocks ~echo ~ece ~rwnd =
  if not (ack_in_window t ~cum_ack) then
    (* RFC 5961-flavored validation: an ack for data never sent is a
       forgery (or an optimistic acker); drop it before it can touch
       the estimator, the scoreboard or the window. *)
    t.ghost_acks <- t.ghost_acks + 1
  else begin
    t.rwnd_field <- rwnd;
    if rwnd <> 0 && t.persist_timer >= 0 then begin
      cancel_persist t;
      t.persist_shift <- 0
    end;
    (* Karn's algorithm (params.karn): an RTT sample spanning a
       retransmitted range is ambiguous — ask before process_ack
       clears the flags.  Challenge acks carry no echo (< 0). *)
    let rexmitted =
      t.params.karn
      && Scoreboard.range_has_rexmit t.sb ~lo:(Scoreboard.high_ack t.sb)
           ~hi:cum_ack
    in
    (* A constant [~rexmitted:true] is a static [Some]; passing the
       variable would build one per ack. *)
    if echo >= 0.0 then
      if rexmitted then Rto.sample ~rexmitted:true t.rto (now t -. echo)
      else Rto.sample t.rto (now t -. echo);
    (match t.taps with
    | None -> ()
    | Some taps -> Obs.Series.add taps.srtt_s ~time:(now t) (Rto.srtt t.rto));
    let high_ack0 = Scoreboard.high_ack t.sb in
    let losses =
      Scoreboard.process_ack t.sb ~cum_ack ~blocks
        ~dupthresh:t.params.dupthresh
    in
    let newly = Scoreboard.high_ack t.sb - high_ack0 in
    if newly > 0 then begin
      restart_timer t;
      if t.in_recovery && Scoreboard.high_ack t.sb >= t.recover_point then
        t.in_recovery <- false;
      if not t.in_recovery then grow_window t newly
    end;
    if (losses > 0 || ece) && not t.in_recovery then enter_recovery t;
    probe_flow t;
    check_completion t;
    if t.completed_at = None then try_send t
  end

let on_syn_ack t ~options ~rwnd ~sent_at =
  if not t.established then
    match Options.decode options with
    | Error _ -> ()  (* unparseable SYN-ACK options: drop the segment *)
    | Ok peer ->
        let negotiated = Options.negotiate (local_options t) peer in
        t.neg_wscale <- negotiated.Options.wscale;
        t.rwnd_field <- rwnd;
        t.established <- true;
        Rto.sample t.rto (now t -. sent_at);
        cancel_timer t;
        try_send t

let completed_at t = t.completed_at

let is_complete t = t.completed_at <> None

(* Flow churn: end the flow now.  Reuses the finite-flow completion
   machinery — acknowledgments for packets already in flight keep
   draining (and updating the scoreboard), but no new transmission or
   retransmission is ever scheduled again. *)
let stop t =
  if t.completed_at = None then begin
    t.completed_at <- Some (now t);
    cancel_timer t;
    cancel_persist t
  end

let create ~net ~src ~dst ?(params = default_params) ?(start_at = 0.0) () =
  let flow = Net.Network.fresh_flow net in
  let receiver =
    Receiver.create ?window:params.window ~wscale:params.wscale ~net ~node:dst
      ~flow ~peer:src ()
  in
  let start = Net.Network.now net +. start_at in
  let t =
    {
      net;
      params;
      src;
      dst;
      dst_unicast = Net.Packet.Unicast dst;
      flow;
      sb = Scoreboard.create ();
      rto = Rto.create ~min_rto:params.min_rto ();
      receiver;
      w =
        {
          cwnd = at_least_one params.init_cwnd;
          ssthresh = params.init_ssthresh;
        };
      in_recovery = false;
      recover_point = 0;
      timer = -1;
      timeout_thunk = ignore;
      start_event = None;
      established = not params.handshake;
      syn_sent = 0;
      neg_wscale = (if params.handshake then 0 else params.wscale);
      rwnd_field = Wire.no_rwnd;
      persist_timer = -1;
      persist_thunk = ignore;
      persist_shift = 0;
      zero_window_probes = 0;
      ghost_acks = 0;
      cwnd_avg = Stats.Time_avg.create ~start ~value:params.init_cwnd;
      rtt = ref (Stats.Welford.create ());
      sent_new = 0;
      retransmits = 0;
      window_cuts = 0;
      timeouts = 0;
      meas_time = start;
      meas_delivered = 0;
      meas_sent_new = 0;
      meas_retransmits = 0;
      meas_window_cuts = 0;
      meas_timeouts = 0;
      completed_at = None;
      taps = None;
    }
  in
  t.timeout_thunk <-
    (fun () ->
      t.timer <- -1;
      on_timeout t);
  t.persist_thunk <-
    (fun () ->
      t.persist_timer <- -1;
      on_persist t);
  (match Net.Network.observer net with
  | None -> ()
  | Some reg ->
      let source = Printf.sprintf "tcp.flow%d" flow in
      t.taps <-
        Some
          {
            reg;
            source;
            cwnd_s = Obs.Registry.series reg (source ^ ".cwnd");
            bytes_s = Obs.Registry.series reg (source ^ ".bytes_acked");
            srtt_s = Obs.Registry.series reg (source ^ ".srtt");
            cuts_c = Obs.Registry.counter reg (source ^ ".window_cuts");
            ssthresh_g = Obs.Registry.gauge reg (source ^ ".ssthresh");
          };
      probe_flow t);
  Net.Node.attach (Net.Network.node net src) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Tcp_ack { cum_ack; blocks; echo; ece; rwnd } ->
          if echo >= 0.0 then Stats.Welford.add !(t.rtt) (now t -. echo);
          on_ack t ~cum_ack ~blocks ~echo ~ece ~rwnd
      | Wire.Tcp_syn_ack { options; rwnd; sent_at } ->
          on_syn_ack t ~options ~rwnd ~sent_at
      | _ -> ());
  (* Random sub-RTT stagger avoids artificial start synchronisation. *)
  let stagger = Sim.Rng.float (Net.Network.fork_rng net) 0.1 in
  t.start_event <-
    Some
      (Sim.Scheduler.schedule_at (Net.Network.scheduler net) (start +. stagger)
         (fun () ->
           t.start_event <- None;
           if t.established then try_send t else send_syn t));
  t

(* --- checkpoint/restore -------------------------------------------- *)

(* The state keeps options for the timers; the [-1] sentinels are
   converted here, so the checkpoint format is unchanged. *)
let event_opt id = if id < 0 then None else Some id

let event_of_opt = function None -> -1 | Some id -> id

type state = {
  s_sb : Scoreboard.state;
  s_rto : Rto.state;
  s_receiver : Receiver.state;
  s_cwnd : float;
  s_ssthresh : float;
  s_in_recovery : bool;
  s_recover_point : int;
  s_timer : Sim.Scheduler.event_id option;
  s_start_event : Sim.Scheduler.event_id option;
  s_cwnd_avg : Stats.Time_avg.state;
  s_rtt : Stats.Welford.state;
  s_sent_new : int;
  s_retransmits : int;
  s_window_cuts : int;
  s_timeouts : int;
  s_meas_time : float;
  s_meas_delivered : int;
  s_meas_sent_new : int;
  s_meas_retransmits : int;
  s_meas_window_cuts : int;
  s_meas_timeouts : int;
  s_completed_at : float option;
  s_established : bool;
  s_syn_sent : int;
  s_neg_wscale : int;
  s_rwnd_field : int;
  s_persist_timer : Sim.Scheduler.event_id option;
  s_persist_shift : int;
  s_zero_window_probes : int;
  s_ghost_acks : int;
}

let capture t =
  {
    s_sb = Scoreboard.capture t.sb;
    s_rto = Rto.capture t.rto;
    s_receiver = Receiver.capture t.receiver;
    s_cwnd = t.w.cwnd;
    s_ssthresh = t.w.ssthresh;
    s_in_recovery = t.in_recovery;
    s_recover_point = t.recover_point;
    s_timer = event_opt t.timer;
    s_start_event = t.start_event;
    s_cwnd_avg = Stats.Time_avg.capture t.cwnd_avg;
    s_rtt = Stats.Welford.capture !(t.rtt);
    s_sent_new = t.sent_new;
    s_retransmits = t.retransmits;
    s_window_cuts = t.window_cuts;
    s_timeouts = t.timeouts;
    s_meas_time = t.meas_time;
    s_meas_delivered = t.meas_delivered;
    s_meas_sent_new = t.meas_sent_new;
    s_meas_retransmits = t.meas_retransmits;
    s_meas_window_cuts = t.meas_window_cuts;
    s_meas_timeouts = t.meas_timeouts;
    s_completed_at = t.completed_at;
    s_established = t.established;
    s_syn_sent = t.syn_sent;
    s_neg_wscale = t.neg_wscale;
    s_rwnd_field = t.rwnd_field;
    s_persist_timer = event_opt t.persist_timer;
    s_persist_shift = t.persist_shift;
    s_zero_window_probes = t.zero_window_probes;
    s_ghost_acks = t.ghost_acks;
  }

let restore t st =
  Scoreboard.restore t.sb st.s_sb;
  Rto.restore t.rto st.s_rto;
  Receiver.restore t.receiver st.s_receiver;
  t.w.cwnd <- st.s_cwnd;
  t.w.ssthresh <- st.s_ssthresh;
  t.in_recovery <- st.s_in_recovery;
  t.recover_point <- st.s_recover_point;
  t.timer <- event_of_opt st.s_timer;
  t.start_event <- st.s_start_event;
  t.established <- st.s_established;
  t.syn_sent <- st.s_syn_sent;
  t.neg_wscale <- st.s_neg_wscale;
  t.rwnd_field <- st.s_rwnd_field;
  t.persist_timer <- event_of_opt st.s_persist_timer;
  t.persist_shift <- st.s_persist_shift;
  t.zero_window_probes <- st.s_zero_window_probes;
  t.ghost_acks <- st.s_ghost_acks;
  let sched = Net.Network.scheduler t.net in
  (match st.s_timer with
  | None -> ()
  | Some id -> Sim.Scheduler.rearm sched ~id t.timeout_thunk);
  (match st.s_persist_timer with
  | None -> ()
  | Some id -> Sim.Scheduler.rearm sched ~id t.persist_thunk);
  (match st.s_start_event with
  | None -> ()
  | Some id ->
      Sim.Scheduler.rearm sched ~id (fun () ->
          t.start_event <- None;
          if t.established then try_send t else send_syn t));
  Stats.Time_avg.restore t.cwnd_avg st.s_cwnd_avg;
  Stats.Welford.restore !(t.rtt) st.s_rtt;
  t.sent_new <- st.s_sent_new;
  t.retransmits <- st.s_retransmits;
  t.window_cuts <- st.s_window_cuts;
  t.timeouts <- st.s_timeouts;
  t.meas_time <- st.s_meas_time;
  t.meas_delivered <- st.s_meas_delivered;
  t.meas_sent_new <- st.s_meas_sent_new;
  t.meas_retransmits <- st.s_meas_retransmits;
  t.meas_window_cuts <- st.s_meas_window_cuts;
  t.meas_timeouts <- st.s_meas_timeouts;
  t.completed_at <- st.s_completed_at
