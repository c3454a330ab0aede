(** Jacobson/Karels round-trip estimation and retransmit timeout.

    srtt and rttvar follow RFC 6298 (gains 1/8 and 1/4); the timeout is
    [srtt + 4 * rttvar], clamped to [\[min_rto, max_rto\]] and doubled on
    each backoff. *)

type t

val create : ?min_rto:float -> ?max_rto:float -> unit -> t
(** Defaults: [min_rto] 1.0 s, [max_rto] 60 s — NS2's values. *)

val sample : ?rexmitted:bool -> t -> float -> unit
(** Feed a fresh RTT measurement (seconds); resets any backoff.
    With [~rexmitted:true] the call is a no-op (Karn's algorithm): a
    sample over a retransmitted range neither updates srtt/rttvar nor
    clears the backoff shift. *)

val srtt : t -> float
(** Smoothed RTT; 0 before the first sample. *)

val timeout : t -> float
(** Current retransmission timeout (includes backoff). *)

val backoff : t -> unit
(** Double the timeout (up to [max_rto]), as after a timer expiry.
    Once the clamped timeout reaches [max_rto] the shift freezes, so
    repeated backoffs cannot overflow the exponent. *)

type state = {
  s_srtt : float;
  s_rttvar : float;
  s_shift : int;
  s_samples : int;
}
(** Complete estimator state ([min_rto]/[max_rto] are configuration). *)

val capture : t -> state

val restore : t -> state -> unit
