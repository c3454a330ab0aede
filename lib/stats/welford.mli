(** Streaming mean and variance (Welford's algorithm).

    Numerically stable accumulation of count / mean / variance without
    storing samples; used for per-run summary statistics. *)

type t

val create : unit -> t

val add : t -> float -> unit

val count : t -> int

val mean : t -> float
(** 0 when empty. *)

type state = {
  s_n : int;
  s_mean : float;
  s_m2 : float;
  s_min : float;
  s_max : float;
}

val capture : t -> state

val restore : t -> state -> unit
