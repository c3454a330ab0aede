(** Streaming mean and variance (Welford's algorithm).

    Numerically stable accumulation of count / mean / variance without
    storing samples; used for per-run summary statistics. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Sample variance (unbiased); 0 with fewer than two samples. *)

val min : t -> float
(** [infinity] when empty. *)

val max : t -> float
(** [neg_infinity] when empty. *)

val merge : t -> t -> t
(** Combine two accumulators (Chan's parallel formula). *)

type state = {
  s_n : int;
  s_mean : float;
  s_m2 : float;
  s_min : float;
  s_max : float;
}

val capture : t -> state

val restore : t -> state -> unit
