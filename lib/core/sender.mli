(** The Random Listening Algorithm sender (section 3.3 of the paper).

    One multicast sender feeding [N] receivers over a distribution
    tree.  One send ring holds what receivers share per packet; each
    receiver keeps only its SACK marks ({!Rcv_state}), so sending a
    packet touches no receiver.  Losses on a branch within [2*srtt_i]
    of each other collapse into one congestion signal; upon a
    congestion signal from a troubled receiver the congestion window is
    halved

    - deterministically, when no cut happened for
      [2 * awnd * srtt_i] seconds (the {e forced cut}), or
    - with probability [pthresh = 1/num_trouble_rcvr] (restricted
      topology) or [(srtt_i/srtt_max)^k / num_trouble_rcvr]
      (generalized RLA), otherwise.

    The window advances by [1/cwnd] for every packet acknowledged by
    {e all} receivers; lost packets are retransmitted by multicast when
    more than [rexmit_thresh] receivers request them and by unicast
    otherwise. *)

type t

val create :
  net:Net.Network.t ->
  src:Net.Packet.addr ->
  receivers:Net.Packet.addr list ->
  ?params:Params.t ->
  ?start_at:float ->
  ?endpoints:Net.Packet.addr list ->
  ?tree:[ `Install | `Preinstalled of Net.Packet.group ] ->
  unit ->
  t
(** Allocates a flow and a multicast group, installs the distribution
    tree (so {!Net.Network.install_routes} must already have run),
    creates one {!Receiver} endpoint per receiver node and starts
    sending at [start_at] (default 0, plus a small random stagger).
    Raises [Invalid_argument] when [receivers] is empty or lists an
    address twice.

    Sharded runs override the defaults: [?tree:(`Preinstalled g)] skips
    both group allocation and tree installation (the caller built the
    distribution tree — possibly spanning several networks — and every
    member has already joined [g]), and [?endpoints] restricts the
    locally created {!Receiver} endpoints to the listed subset of
    [receivers] (the rest live on other shards and are created there
    with this sender's {!flow}).  The defaults ([`Install], all
    receivers local) leave single-network behavior bit-identical to
    before these options existed.

    If the network has a metrics registry installed
    ({!Net.Network.set_registry}) at creation time, the session
    publishes ["rla.flow<N>.cwnd"] and ["rla.flow<N>.bytes_acked"]
    series (aligned sample times, taken on ack/timeout processing),
    ["rla.flow<N>.window_cuts"] / ["rla.flow<N>.signals"] counters, and
    [window_cut] / [forced_cut] events.  Probing is passive: runs are
    bit-identical with or without it. *)

val flow : t -> Net.Packet.flow

val add_receiver : t -> Net.Packet.addr -> bool
(** Runtime membership join — the counterpart of {!drop_receiver}.
    Grafts the node onto the distribution tree, creates a receiver
    endpoint acknowledging from the sender's current sequence frontier,
    and starts counting the newcomer in the acked-by-all window rules
    and in [num_trouble_rcvr] (so [pthresh] reflects the new membership
    immediately).  Packets sent before the join are not the newcomer's
    responsibility.  Returns [false] when the address is already an
    active member; raises [Invalid_argument] for an unknown address or
    the session source. *)

val drop_receiver : t -> Net.Packet.addr -> bool
(** The slow-receiver option (section 4.3): stop listening to this
    receiver.  Its acknowledgments are ignored from now on, it no
    longer gates the acked-by-all window advance or retransmission
    decisions, and outstanding packets complete against the remaining
    receivers.  Returns [false] for an unknown or already-dropped
    address; raises [Invalid_argument] when it would drop the last
    active receiver. *)

val active_receivers : t -> Net.Packet.addr list

val cwnd : t -> float

val max_reach_all : t -> int
(** Packets delivered to every receiver (contiguous prefix). *)

val congestion_signals : t -> int
(** Total congestion signals detected (all receivers). *)

val signals_per_receiver : t -> (Net.Packet.addr * int) list

val window_cuts : t -> int

val forced_cuts : t -> int

val timeouts : t -> int

val reset_measurement : t -> unit
(** Restart the measurement window (the paper discards the first
    100 s): cwnd time-average, RTT stats, and all counter baselines. *)

type snapshot = {
  time : float;
  delivered : int;  (** Packets newly reaching all receivers. *)
  throughput : float;
      (** All-receiver goodput, pkt/s over the measurement window. *)
  send_rate : float;
      (** Packets put on the wire per second (new data + multicast and
          unicast retransmissions) — the session's bandwidth share of a
          bottleneck branch, which is what the paper's tables report
          (~ cwnd / RTT). *)
  cwnd_now : float;
  cwnd_avg : float;  (** Time-weighted. *)
  rtt_avg : float;
      (** Mean per-acknowledgment round-trip time across receivers
          (comparable to the competing TCPs' RTT, as in figure 7). *)
  rtt_all_avg : float;
      (** Mean time from first transmission to all-receiver coverage,
          over packets that needed no retransmission (the [RTT_RLA] of
          equation 5: between 1x and 2x the branch RTT). *)
  congestion_signals : int;
  window_cuts : int;
  forced_cuts : int;
  timeouts : int;
  rexmits : int;
  signals_per_receiver : (Net.Packet.addr * int) list;
}

val snapshot : t -> snapshot

type rexmit_target = To_group | To_receivers of Net.Packet.addr list
(** Where a queued retransmission will go: the whole multicast group,
    or unicast copies to the listed receivers. *)

type coverage_state = {
  c_seq : int;
  c_covered : int;  (** receivers that have acked this packet *)
  c_rexmitted : bool;
  c_sent_at : float;
}

type state = {
  s_rcvrs : Rcv_state.state list;  (** slot order *)
  s_n_active : int;
  s_endpoints : Receiver.state list;  (** endpoint list order *)
  s_rng : int64;
  s_rto : Tcp.Rto.state;
  s_cwnd : float;
  s_ssthresh : float;
  s_awnd : Stats.Ewma.state;
  s_last_window_cut : float;
  s_next_seq : int;
  s_mra : int;
  s_coverage : coverage_state list;  (** ascending seq *)
  s_pending : int list;  (** ascending *)
  s_rexmit_queue : (int * rexmit_target) list;  (** queue order *)
  s_queued : int list;  (** ascending *)
  s_timer : Sim.Scheduler.event_id option;
  s_start_event : Sim.Scheduler.event_id option;
  s_num_trouble : int;
  s_window_cuts : int;
  s_forced_cuts : int;
  s_timeouts : int;
  s_signals : int;
  s_rexmits_multicast : int;
  s_rexmits_unicast : int;
  s_sent_new : int;
  s_cwnd_avg : Stats.Time_avg.state;
  s_rtt : Stats.Welford.state;
  s_rtt_acks : Stats.Welford.state;
  s_meas_time : float;
  s_meas_mra : int;
  s_meas_signals : int;
  s_meas_cuts : int;
  s_meas_forced : int;
  s_meas_timeouts : int;
  s_meas_rexmits : int;
  s_meas_sent_new : int;
  s_meas_signals_per : int list;  (** slot order *)
}

val capture : t -> state
(** Everything mutable about the session, including its receiver
    endpoints and pending timer/start events, in a serializable form.
    The captured session must have the same membership history as the
    one being restored into. *)

val restore : t -> state -> unit
(** Overwrite the session state and re-arm the retransmission timer and
    start event under their original ids.  Must run after
    [Sim.Scheduler.restore]; raises [Invalid_argument] when receiver
    slot or endpoint counts disagree with the capture. *)

module For_testing : sig
  (** Per-receiver internals the membership, threshold and golden tests
      inspect.  num_trouble_rcvr is the n that ROADMAP item 2 will hand to the
      fairness verdict; until then only tests read it. *)

  val active_slot : t -> Net.Packet.addr -> int
  (** The receiver slot this address's acknowledgments are dispatched
      to, or [-1] when the address is not an active member (never
      joined, or dropped).  An O(1) read of the sender's address index,
      which every by-address lookup shares. *)

  val num_trouble_rcvr : t -> int
  (** Latest troubled-receiver count (recomputed on each signal). *)

  val pthresh_for : t -> Net.Packet.addr -> float
  (** The cut probability that a congestion signal from this receiver
      would face right now (test/diagnostic hook). *)

  val min_last_ack : t -> int
  (** Smallest cumulative ack across receivers. *)

  val receiver_endpoints : t -> Receiver.t list
end
