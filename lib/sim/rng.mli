(** Deterministic pseudo-random number generator (splitmix64).

    Every stochastic decision in the simulator draws from an explicit
    [Rng.t] so that a run is fully reproducible from its seed.  Streams
    can be {!split} so independent components (e.g. each traffic source)
    consume independent sequences regardless of interleaving. *)

type t

val create : int -> t
(** [create seed] builds a generator from an integer seed. *)

val split : t -> t
(** [split t] derives a statistically independent generator, advancing
    [t] by one step. *)

val copy : t -> t
(** Duplicate the current state. *)

val state : t -> int64
(** [state t] is the complete generator state (splitmix64 is a single
    64-bit counter).  [set_state t (state t')] makes [t] continue
    [t']'s stream exactly; used by checkpoint/restore. *)

val set_state : t -> int64 -> unit
(** Overwrite the generator state in place. *)

val bits64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val uniform : t -> float
(** Uniform in [\[0, 1)]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]; [bound] must be positive. *)

val bernoulli : t -> float -> bool
(** [bernoulli t p] is [true] with probability [p]. *)

val exponential : t -> float -> float
(** [exponential t mean] draws from an exponential distribution. *)

val range : t -> float -> float -> float
(** [range t lo hi] is uniform in [\[lo, hi)]. *)
