(** Sample store with exact quantiles.

    Keeps all samples (simulation runs are bounded), sorts lazily. *)

type t

val create : unit -> t

val add : t -> float -> unit

val quantile : t -> float -> float
(** [quantile t q] for [q] in [\[0, 1\]], linear interpolation; raises
    [Invalid_argument] when empty. *)

val mean : t -> float
