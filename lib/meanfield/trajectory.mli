(** Sampled solver trajectories.

    A growable record of (time, instantaneous queue, averaged queue,
    effective drop probability, aggregate arrival rate, RLA window)
    samples, with tail statistics for steadiness / limit-cycle
    detection and a deterministic CSV exporter. *)

type t

val create : ?capacity:int -> unit -> t

val push :
  t ->
  time:float ->
  queue:float ->
  avg:float ->
  drop:float ->
  lambda:float ->
  rla_w:float ->
  unit

val length : t -> int

val time : t -> int -> float

val rla_w : t -> int -> float

type tail = {
  avg_amplitude : float;
      (** Half peak-to-peak of the averaged queue over the tail. *)
  avg_mean : float;
  queue_mean : float;
  drop_mean : float;
  lambda_mean : float;
}

val tail_stats : t -> window:float -> tail
(** Statistics over the trailing [window] seconds of samples. *)

val tail_period : t -> window:float -> float option
(** Limit-cycle period from upward mean-crossings of the averaged
    queue over the tail; [None] if fewer than two crossings. *)

val to_csv_string : t -> string
