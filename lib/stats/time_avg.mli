(** Time-weighted average of a piecewise-constant signal.

    The paper reports the *time average* of the congestion window
    (cwnd holds a value until the next update), so a plain sample mean
    would be biased; this accumulator weights each value by how long it
    was held. *)

type t

val create : start:float -> value:float -> t
(** Signal starts at [start] with [value]. *)

val update : t -> time:float -> value:float -> unit
(** Record that at [time] the signal changed to [value].  [time] must
    be >= the previous update time. *)

val average : t -> upto:float -> float
(** Time-weighted mean over [\[start, upto\]]. *)

val reset : t -> start:float -> value:float -> unit
(** Restart accumulation (used to discard a warm-up interval). *)

type state = {
  s_start : float;
  s_last_time : float;
  s_last_value : float;
  s_weighted_sum : float;
}

val capture : t -> state

val restore : t -> state -> unit
