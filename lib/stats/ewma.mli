(** Exponentially-weighted moving average.

    Used throughout the RLA: smoothed round-trip times, the moving
    average of the congestion window ([awnd]), and per-receiver averages
    of congestion-signal intervals (rule 6 of the algorithm). *)

type t

val create : weight:float -> t
(** [create ~weight] with [0 < weight <= 1]: each update moves the
    average by [weight] towards the new sample.  The first sample
    initialises the average directly. *)

val update : t -> float -> unit

val value : t -> float
(** Current average; 0 before any sample. *)

type state = { s_avg : float; s_samples : int }
(** Complete mutable state (the weight is configuration). *)

val capture : t -> state

val restore : t -> state -> unit
