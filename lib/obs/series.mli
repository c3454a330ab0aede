(** Bounded sampled time series.

    A series records [(time, value)] samples with memory capped at
    [limit] points: when the buffer fills, the even-indexed half is kept
    and the recording stride doubles (1, 2, 4, ... offered samples per
    stored one), so arbitrarily long runs retain an approximately
    uniform subsample.

    Decimation is a pure function of the sequence of {!add} calls: two
    series created with the same [limit] and offered samples at the same
    call points keep exactly the same sample times, which lets exporters
    join sibling series (e.g. a flow's cwnd and bytes-acked columns)
    row by row. *)

type t

val default_limit : int
(** 4096 samples. *)

val create : ?limit:int -> string -> t
(** [create ?limit name] is an empty series.  [limit] (default
    {!default_limit}) must be at least 2; raises [Invalid_argument]
    otherwise. *)

val name : t -> string

val add : t -> time:float -> float -> unit
(** Offer one sample.  Whether it is stored depends on the current
    decimation stride. *)

val length : t -> int
(** Samples currently stored (at most [limit]). *)

val limit : t -> int

val stride : t -> int
(** Current decimation stride: one stored sample per [stride] offers. *)

val offered : t -> int
(** Total samples offered over the series' lifetime. *)

val times : t -> float array
(** Stored sample times, oldest first (a copy). *)

val values : t -> float array
(** Stored sample values, aligned with {!times} (a copy). *)

type state = {
  s_times : float array;
  s_values : float array;
  s_stride : int;
  s_skip : int;
  s_offered : int;
}
(** Complete recording state: stored samples plus the decimation
    position ([name] and [limit] are configuration). *)

val capture : t -> state

val restore : t -> state -> unit
(** After [restore t (capture t')], subsequent identical [add]
    sequences store identical samples — the decimation schedule
    continues exactly where [t'] left off. *)
