(** Checkpoint event journal: an append-only log of the simulation's
    instrumentation events (congestion signals, window cuts, forced
    cuts, fault injections, ...) used to localize divergence.

    A journal {!attach}ed to a run's metrics registry records every
    {!Obs.Registry.emit} in firing order.  Two runs that should be
    identical (an uninterrupted run vs. a restore-and-resume, or the
    same seed at different [--jobs]) then either produce identical
    journals, or {!diff} names the exact first event where their
    histories part — far more actionable than "the final CSV differs".

    Recording is passive (no scheduled events, no RNG draws), so an
    attached journal never perturbs the run.  Entries round-trip
    through {!save}/{!load} bit-exactly: floats are written as C99
    hexadecimal literals. *)

type entry = { time : float; source : string; event : string; value : float }

type t

val create : unit -> t

val attach : t -> Obs.Registry.t -> unit
(** Subscribe to the registry's event stream; every emitted event is
    appended.  A journal can gather several registries, though runs
    here use one. *)

val record : t -> entry -> unit

val entries : t -> entry list
(** In recording order. *)

val length : t -> int

val entry_to_string : entry -> string

val save : t -> path:string -> unit
(** One tab-separated line per entry ([time, source, event, value],
    floats in [%h] form), written via a temporary file and rename.
    When the write or the rename fails, the temporary file is removed
    and the exception re-raised. *)

val load : path:string -> (t, string) result

type divergence = {
  index : int;  (** 0-based position of the first differing entry. *)
  a : entry option;  (** [None] = first journal ended here. *)
  b : entry option;
}

val diff : t -> t -> divergence option
(** [None] when the journals are identical.  Entries are compared
    bit-exactly: floats by their IEEE-754 bits, so identical NaNs are
    equal and [-0.] differs from [0.]. *)
