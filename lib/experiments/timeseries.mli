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

val to_csv : Format.formatter -> t -> unit
(** Header [time,<probe>...] then one row per sample. *)
