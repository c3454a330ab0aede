(** Drift analysis of the RLA window process (section 4.2).

    Models the congestion window of an RLA sender listening to [n]
    receivers with per-packet congestion-signal probabilities
    [p_1..p_n], each signal triggering a halving independently with
    probability [1/n].  The proportional-average (PA) window is the
    zero of the expected drift; the paper's Proposition bounds it
    between the TCP PA window at [p_max] and [sqrt n] times it. *)

val pa_window_independent : ps:float array -> float
(** Zero of the expected drift under independent losses (bisection). *)

val drift_rate_common : n:int -> p:float -> rtt:float -> float -> float
(** [drift_rate_common ~n ~p ~rtt w]: continuous-time window drift
    (windows per second) of the common-loss RLA process —
    [(w / rtt) * drift_common ~n ~p w].  Shared with the mean-field
    solver; accepts [p in [0, 1]] (clamped just below 1). *)

val proposition_bounds : n:int -> p_max:float -> float * float
(** Equation 2: [(sqrt(2(1-p)/p), sqrt n * sqrt(2(1-p)/p))]. *)

val satisfies_proposition : n:int -> ps:float array -> window:float -> bool
(** Check a window value against the Proposition at
    [p_max = max ps]. *)

val simulate_window :
  rng:Sim.Rng.t -> ps:float array -> steps:int -> float
(** Monte-Carlo iterate of the RLA window process with independent
    losses; returns the sample-average window. *)

module For_testing : sig
  (** Pieces of the section 4 analysis whose tests reproduce the paper's
      claims; no product prints them yet (ROADMAP item 8 will set them beside
      the measured runs). *)

  val two_receiver_window : p1:float -> p2:float -> float
  (** Closed form of equation 3:
      [W^2 = 4(1 - (p1+p2)/2 + p1 p2/4) / (p1 + p2 - p1 p2 / 4)]. *)

  val drift_common : n:int -> p:float -> float -> float
  (** Drift when all losses are common (one loss event signals all [n]
      receivers at once; the cut count is Binomial(n, 1/n)). *)

  val pa_window_common : n:int -> p:float -> float
  (** Zero of {!drift_common}. *)

  val min_ratio_for_upper_bound : float -> float
  (** [f(p1) = p1 / (2 - 1.5 p1)] from the proof: the upper bound of the
      two-receiver case needs [p2/p1 >= f(p1)]; with eta = 20 the RLA
      guarantees the ratio stays above 1/20 = 0.05 > f(0.05). *)

  val window_ratio_to_tcp : ps:float array -> float
  (** [pa_window_independent ps / Tcp_model.pa_window (max ps)] — the
      window-share multiplier the RLA gets over the soft-bottleneck TCP
      in the drift model. *)

  val equal_congestion_ratio : n:int -> p:float -> float
  (** Section 4.3, first regime: all [n] troubled receivers equally
      congested.  The paper claims the resulting throughput is at most
      four times the competing TCP's for {e any} n; in window terms this
      ratio stays below 2 (the remaining factor comes from the <= 2x
      RTT bound of equation 5). *)

  val skewed_congestion_ratio : n:int -> p_max:float -> eta:float -> float
  (** Section 4.3, second regime: one receiver at [p_max] and [n-1]
      receivers just congested enough to stay troubled
      ([p_max / eta]).  Grows with n — the multicast deliberately takes
      more when a single receiver is the only real bottleneck. *)
end
