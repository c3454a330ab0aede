(** Sender-side SACK scoreboard (RFC 2018 / RFC 3517 style).

    Tracks, for every outstanding packet, whether it has been
    selectively acknowledged, declared lost, or retransmitted, and
    maintains the [pipe] estimate (packets believed in flight) in
    O(1) amortised time per event.

    Invariants on per-packet flags: [sacked] excludes [lost];
    [rexmitted] implies [lost].  The loss rule is the paper's: a packet
    P is lost once some packet with sequence number >= P + dupthresh
    has been SACKed.

    A TCP sender allocates sequence numbers on the board
    ({!register_send}).  The RLA sender keeps one board per receiver
    and passes its one [next_seq] to the transitions that take it, so
    sending touches no board; the marks ring is allocated on the first
    mark. *)

type t

val create : ?start:int -> unit -> t
(** [start] (default 0) positions the board mid-stream: [high_ack],
    [next_seq] and the loss floor all begin there, and everything below
    counts as already delivered. *)

val high_ack : t -> int
(** Next packet the receiver expects cumulatively. *)

val next_seq : t -> int
(** Next new sequence number {!register_send} allocates. *)

val register_send : t -> int
(** Allocate and return the next new sequence number. *)

val pipe : t -> int
(** Estimate of packets currently in flight. *)

val accounted : t -> int
(** [next_seq - accounted] is the pipe; sending leaves it alone. *)

val in_flight_window : t -> int
(** [next_seq - high_ack]: outstanding window including holes. *)

val covers : t -> int -> bool
(** Acknowledged cumulatively or by SACK. *)

val reported : t -> int -> bool
(** Covered, or lost. *)

val is_lost : t -> int -> bool

val needs_rexmit : t -> int -> bool
(** Lost, and no retransmission of it outstanding. *)

(** The transitions below call [f] on each sequence number they change,
    ascending, instead of building a list, and return how many. *)

val advance_cum : t -> next_seq:int -> int -> (int -> unit) -> int
(** Process a cumulative ack ([ack] = next expected), reporting the
    newly acknowledged sequence numbers that had {e not} been SACKed
    before; returns how far the cumulative point moved, 0 for an ack
    below it. *)

val sack : t -> next_seq:int -> lo:int -> hi:int -> (int -> unit) -> int
(** SACK the half-open range, ignoring what lies below [high_ack],
    reporting the newly SACKed sequence numbers. *)

val detect_losses : t -> next_seq:int -> dupthresh:int -> (int -> unit) -> int
(** Mark the newly lost packets lost and report them. *)

val expire_rexmits : t -> next_seq:int -> before:float -> (int -> unit) -> unit
(** Presume retransmissions sent strictly before [before] lost: clear
    their retransmitted flags, making them eligible again. *)

val process_ack :
  t -> cum_ack:int -> blocks:Wire.sack_block list -> dupthresh:int -> int
(** One-call ack processing for the TCP sender hot path, against the
    board's own [next_seq]: advance the cumulative point, apply the
    SACK blocks (half-open [[block_lo, block_hi)] ranges) and run loss
    detection, in that order.  Returns the number of packets newly
    marked lost; allocates nothing.  The newly cumulatively
    acknowledged count is the change in {!high_ack} across the call. *)

val mark_all_lost : t -> next_seq:int -> int
(** Timeout handling: every outstanding unSACKed packet is marked lost
    and pending retransmissions are forgotten.  Returns the number
    marked; allocates nothing. *)

val next_retransmit : t -> int option
(** Lowest lost packet not yet retransmitted. *)

val mark_retransmitted : ?at:float -> t -> int -> unit
(** Record that the packet was retransmitted (at time [at], default 0);
    raises [Invalid_argument] unless it is currently lost and not
    already retransmitted. *)

val range_has_rexmit : t -> lo:int -> hi:int -> bool
(** Does the window-clamped range [\[lo, hi)] contain a packet whose
    retransmission is still outstanding?  Karn's-algorithm callers ask
    this {e before} {!process_ack} (advancing the cumulative point
    clears the flags) to decide whether an RTT sample is ambiguous. *)

val iter_sacked : t -> (int -> unit) -> unit
(** SACKed sequence numbers at or above [high_ack], ascending. *)

val counts_agree : t -> next_seq:int -> bool
(** Recount from scratch: counters match, flag invariants hold, pipe
    not negative. *)

type entry_state = {
  e_seq : int;
  e_sacked : bool;
  e_lost : bool;
  e_rexmitted : bool;
  e_rexmit_time : float;
}

type state = {
  s_entries : entry_state list;  (** ascending seq *)
  s_high_ack : int;
  s_next_seq : int;
  s_highest_sacked : int;
  s_sacked_cnt : int;
  s_lost_cnt : int;
  s_rexmit_out : int;
  s_loss_floor : int;
}

val capture : t -> next_seq:int -> state

val restore : t -> state -> unit

module For_testing : sig
  (** The single transitions and the recount that the model-based
      scoreboard tests drive step by step, against the board's own
      [next_seq]. *)

  val advance_cum : t -> int -> int
  (** [advance_cum t ack] processes a cumulative ack ([ack] = next
      expected).  Returns how many packets were newly acknowledged.
      Acks below the current point return 0. *)

  val mark_sacked : t -> lo:int -> hi:int -> int
  (** SACK the half-open range; returns the number of newly SACKed
      packets.  Ranges at or below [high_ack] are ignored. *)

  val detect_losses : t -> dupthresh:int -> int list
  (** Newly lost packets (ascending), marking them lost as a side
      effect. *)

  val mark_lost : t -> int -> bool
  (** Force-mark one packet lost (used on timeout); [false] if it was
      already lost or SACKed. *)

  val highest_sacked : t -> int
  (** Highest packet ever SACKed, or -1. *)

  val check_invariants : t -> unit
  (** {!counts_agree}, raising [Assert_failure] when it does not. *)
end
