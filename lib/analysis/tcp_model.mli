(** Closed-form TCP steady-state models (section 4.1).

    [pa_window p] is the proportional-average window
    [sqrt(2(1-p)/p)] from the drift analysis of Ott, Kemperman &
    Mathis; [mahdavi_floyd_rate] is the popular
    [1.3 / (rtt * sqrt p)] throughput estimate the paper compares
    against.  Both hold for moderate congestion (p < 5%). *)

val pa_window : float -> float
(** Proportional-average window (packets) at congestion probability
    [p]; raises [Invalid_argument] outside (0, 1). *)

val pa_window_approx : float -> float
(** The small-p simplification [sqrt 2 / sqrt p]. *)

(** {2 Total variant for solver loops}

    The mean-field solver's drop-probability loop sweeps RED profiles
    that legitimately reach [p = 0] (average queue below [min_th]) and
    [p = 1] (average queue at [max_th]); {!pa_window} raises on both
    ends.  This variant makes the domain behaviour explicit. *)

val pa_window_clamped : ?eps:float -> float -> float
(** [pa_window] evaluated at [p] clamped into [[eps, 1 - eps]]
    (default [1e-9]): a total, monotone version for
    fixed-point iterations.  [pa_window_clamped 0.0] is the (huge but
    finite) window at [p = eps], [pa_window_clamped 1.0] the (tiny but
    positive) window at [1 - eps].  Raises [Invalid_argument] only on
    NaN input or [eps] outside (0, 0.5). *)

val drift : p:float -> float -> float
(** [drift ~p w]: expected per-ack window drift
    [(1-p)/w - p*w/2]; zero exactly at {!pa_window}. *)

val mahdavi_floyd_rate : rtt:float -> p:float -> float
(** Throughput (pkt/s) [1.3/(rtt*sqrt p)]. *)

val throughput : rtt:float -> p:float -> float
(** PA-window throughput estimate [pa_window p / rtt]. *)

val congestion_probability_for_window : float -> float
(** Inverse of {!pa_window}: the congestion probability yielding a
    given PA window ([p = 2/(w^2+2)]). *)

val simulate_pa_window :
  rng:Sim.Rng.t -> p:float -> steps:int -> float
(** Monte-Carlo check of the drift model: iterate the idealised window
    process ([w + 1/w] w.p. [1-p], [w/2] w.p. [p]) and return the
    sample-average window. *)
