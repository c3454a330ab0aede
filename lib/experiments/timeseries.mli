(** Time-series probes: sample arbitrary gauges (congestion windows,
    queue lengths, rates) on a fixed interval during a run and export
    aligned CSV — the raw material for the cwnd/queue evolution plots
    that complement the paper's tables. *)

type probe = { name : string; read : unit -> float }

type t

val create :
  net:Net.Network.t -> interval:float -> probes:probe list -> t
(** Starts sampling immediately; every [interval] seconds each probe is
    read once.  Sampling runs for the lifetime of the simulation. *)

val length : t -> int
(** Samples collected so far. *)

val names : t -> string list

val column : t -> string -> float array
(** Values for one probe; raises [Not_found] for unknown names. *)

val to_csv : Format.formatter -> t -> unit
(** Header [time,<probe>...] then one row per sample. *)

val value_at : t -> string -> time:float -> float
(** The probe's last sampled value at or before [time]; raises
    [Invalid_argument] when [time] precedes the first sample. *)
