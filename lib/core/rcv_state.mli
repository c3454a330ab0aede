(** Sender-side view of one multicast receiver.

    Holds everything the RLA sender keeps per receiver: a SACK
    scoreboard for that receiver's acknowledgment stream, the smoothed
    round-trip time [srtt_i], the congestion-period start used to group
    losses within [2*srtt_i] into one congestion signal, and the EWMA
    of congestion-signal intervals that drives the troubled-receiver
    count (rule 6 of the algorithm). *)

type t

val create :
  addr:Net.Packet.addr ->
  params:Params.t ->
  session_start:float ->
  ?board_start:int ->
  unit ->
  t
(** [board_start] (default 0) aligns the scoreboard with the sender's
    current sequence frontier — used when a receiver joins a running
    session and is only responsible for packets from that point on. *)

val addr : t -> Net.Packet.addr

val board : t -> Tcp.Scoreboard.t

val active : t -> bool
(** [false] once the sender has dropped this receiver (the
    slow-receiver option of section 4.3); its acknowledgments are then
    ignored and it no longer gates the acked-by-all frontier. *)

val deactivate : t -> unit

val srtt : t -> float
(** Smoothed RTT estimate; 0 before the first sample. *)

val observe_rtt : t -> float -> unit

val signals : t -> int
(** Congestion signals raised by this receiver so far. *)

val acks : t -> int

val count_ack : t -> unit

val register_losses : t -> now:float -> bool
(** Called when fresh losses were detected on this receiver's branch.
    Returns [true] when they open a new congestion period (i.e. count
    as one congestion signal); losses within
    [group_rtt_factor * srtt] of the period start return [false]. *)

val mean_signal_interval : t -> now:float -> float
(** EWMA of intervals between this receiver's congestion signals,
    aged by the time since the last signal so a receiver that went
    quiet stops looking congested; [infinity] before the first
    signal. *)

val is_troubled : t -> now:float -> min_interval:float -> eta:float -> bool
(** Rule 6: troubled iff its mean signal interval is within
    [eta * min_interval]. *)

type state = {
  s_board : Tcp.Scoreboard.state;
  s_srtt : Stats.Ewma.state;
  s_interval : Stats.Ewma.state;
  s_cperiod_start : float;
  s_last_signal : float;
  s_signals : int;
  s_acks : int;
  s_active : bool;
}

val capture : t -> state

val restore : t -> state -> unit
