(** Markov "particle" model of two competing RLA sessions
    (section 4.4, figures 3-5).

    The pair of congestion windows [(W1, W2)] moves on the plane in
    steps of [2*RTT]: below the pipe both windows grow by 2; at or
    above it each sender independently keeps growing with probability
    [(1-1/n)^n] or halves [i] times with the binomial probability of
    [i] of its [n] congestion signals passing the random-listening
    filter. *)

type pipes = { pipe_sizes : float array; counts : int array }
(** [k] distinct pipe levels, [counts.(i)] troubled receivers at level
    [pipe_sizes.(i)]; arrays must have equal nonzero length and
    ascending sizes. *)

val uniform_pipes : pipe:float -> n:int -> pipes
(** All [n] receivers behind one pipe. *)

type field_point = { x : float; y : float; dx : float; dy : float }

val drift_field :
  pipes -> x_max:float -> y_max:float -> step:float -> field_point list
(** The figure-4 drift diagram, sampled on a grid. *)

type run_stats = {
  density : Stats.Density.t;
  mean_w1 : float;
  mean_w2 : float;
  mean_abs_diff : float;
  centroid : float * float;
  mass_near_fair_point : float;
      (** Fraction of visits within 25% of the fair operating point. *)
}

val simulate :
  rng:Sim.Rng.t ->
  pipes ->
  steps:int ->
  ?cells:int ->
  ?w_max:float ->
  unit ->
  run_stats
(** Monte-Carlo run of the two-session chain recording the
    figure-5 occupancy density.  The fair operating point is
    [(max_pipe/2 - 1, max_pipe/2 - 1)] scaled to the largest pipe. *)

module For_testing : sig
  (** Pieces of the section 4 analysis whose tests reproduce the paper's
      claims; no product prints them yet (ROADMAP item 8 will set them beside
      the measured runs). *)

  val signals_at : pipes -> float -> int
  (** Number of congestion signals fed to each sender when
      [w1 + w2] equals the given sum. *)

  val drift_at : pipes -> w:float -> sum:float -> float
  (** Expected drift of one window at value [w] when the current window
      sum is [sum] (time unit: one step of [2*RTT]). *)

  val fair_point : pipes -> float * float
  (** The desired operating point: equal split of the smallest pipe. *)
end
