(** TCP SACK sender with an infinite data source.

    Implements the congestion control the paper models: slow start,
    congestion avoidance (+1/cwnd per new ack), one window halving per
    recovery episode regardless of how many packets that window lost,
    SACK-driven retransmission, and timeout with exponential backoff.

    All stochastic inputs come through the network's RNG streams, so a
    run is reproducible from the network seed. *)

type params = {
  init_cwnd : float;
  init_ssthresh : float;
  dupthresh : int;  (** Paper: 3. *)
  max_burst : int;  (** Packets releasable per ack event (NS2: 4). *)
  max_cwnd : float;  (** Receiver-window cap, in packets. *)
  data_size : int;  (** Bytes per data packet. *)
  min_rto : float;
  limit : int option;
      (** [Some n] makes this a finite flow of [n] packets (for
          short-flow experiments); [None] sends forever. *)
  handshake : bool;
      (** Run a SYN / SYN-ACK exchange (with {!Options} negotiation)
          before data; [false] starts established, the legacy
          behavior. *)
  wscale : int;
      (** Window-scale shift offered at SYN time and applied to the
          advertised-window field (RFC 7323; 0..14). *)
  window : Receiver.window option;
      (** Finite receive window to model at the peer; [None] keeps the
          infinite-sink receiver (no advertisement, no flow control,
          no zero-window probing — the legacy behavior). *)
  karn : bool;
      (** Karn's algorithm: discard RTT samples spanning retransmitted
          ranges and keep the RTO backoff in force until an
          unambiguous sample arrives. *)
}

val default_params : params
(** cwnd 1, ssthresh 64, dupthresh 3, max_burst 4, max_cwnd 128 (a
    1998-vintage 128 KB receiver window), 1000-byte packets, min RTO
    1.0 s, infinite data; no handshake, no window scaling, infinite
    receive window, Karn off — every hardening feature defaults to
    the legacy behavior so existing experiments replay byte-identically. *)

type t

val create :
  net:Net.Network.t ->
  src:Net.Packet.addr ->
  dst:Net.Packet.addr ->
  ?params:params ->
  ?start_at:float ->
  unit ->
  t
(** Build sender + receiver pair on a fresh flow; transmission starts
    at [start_at] (default 0, plus a sub-RTT random stagger drawn from
    the network RNG to avoid synchronised starts).

    If the network has a metrics registry installed
    ({!Net.Network.set_registry}) when the sender is created, the flow
    publishes ["tcp.flow<N>.cwnd"], ["tcp.flow<N>.bytes_acked"] and
    ["tcp.flow<N>.srtt"] series (sampled on ack/timeout processing; the
    cwnd and bytes series share identical sample times so exporters can
    zip them), a ["tcp.flow<N>.window_cuts"] counter, a
    ["tcp.flow<N>.ssthresh"] gauge, and [window_cut] events.  Probing
    is passive: behaviour is bit-identical with or without it. *)

val flow : t -> Net.Packet.flow

val cwnd : t -> float

val delivered : t -> int
(** Packets cumulatively acknowledged so far. *)

val window_cuts : t -> int
(** Total halvings (fast recovery entries + timeouts). *)

val timeouts : t -> int

val retransmits : t -> int

val sent_new : t -> int

val reset_measurement : t -> unit
(** Restart the measurement window: cwnd time-average, RTT stats and
    the snapshot baseline all restart at the current instant (the paper
    discards the first 100 s of each run). *)

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
  throughput : float;  (** Delivered (goodput) pkt/s since the reset. *)
  send_rate : float;
      (** Packets put on the wire per second (new + retransmissions) —
          the flow's bandwidth share of its bottleneck, which is the
          quantity the paper's tables report (~ cwnd / RTT). *)
}

val snapshot : t -> snapshot
(** Counters are measured from the last {!reset_measurement}. *)

val receiver : t -> Receiver.t

val ghost_acks : t -> int
(** Acks dropped by the ack-validation fast path: a cumulative ack is
    acceptable iff it does not acknowledge data never sent
    ([cum_ack <= next_seq]).  The check runs once per received ack
    before any scoreboard work; a failing ack is counted here and
    otherwise ignored, which is what neutralises optimistic-ack
    forgery. *)

val completed_at : t -> float option
(** For finite flows: when the last packet was cumulatively
    acknowledged; [None] while incomplete or for infinite flows. *)

val stop : t -> unit
(** End the flow now (traffic churn): the retransmission timer is
    cancelled and no further packet is ever sent, but acknowledgments
    for data already in flight keep draining.  After [stop]
    {!completed_at} is [Some _].  Idempotent; a no-op on flows that already
    completed. *)

(** {2 Checkpoint/restore} *)

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

val capture : t -> state
(** Pure read of the complete sender+receiver endpoint state, including
    pending retransmission-timer and start-stagger event ids. *)

val restore : t -> state -> unit
(** Overwrite a freshly created sender (same construction order) and
    re-arm its pending events under their original ids.  Must run after
    [Sim.Scheduler.restore] on the same scheduler. *)
