(** Discretized per-class window distributions.

    A distribution is a plain [float array] of probability mass over
    [bins] cells of width [h]; cell [i] represents window
    [(i + 0.5) * h].  The transport operator discretizes the
    McDonald–Reynier window PDE: upward advection for additive
    increase, a mass-conserving halving kernel for multiplicative
    decrease. *)

val init_delta : bins:int -> h:float -> float -> float array
(** Unit point mass at a given window, linearly split between the two
    bracketing bins (clamped to the histogram range). *)

val mean : h:float -> float array -> float
(** First moment E[W] (assumes unit mass). *)

val rms : h:float -> float array -> float
(** sqrt(E[W^2]); at transport stationarity this equals
    [Tcp_model.pa_window p] exactly, since the drift balance gives
    E[W^2] = 2 (1 - p) / p. *)

val deriv :
  h:float -> growth:float -> halve_coeff:float -> float array ->
  float array -> unit
(** [deriv ~h ~growth ~halve_coeff m dm] accumulates dm/dt of the
    transport into [dm] (caller zeroes it first): upwind advection at
    velocity [growth] (windows/s) plus halving at per-window rate
    [halve_coeff] (so bin [i] halves at rate [halve_coeff * w_i]).
    Conserves total mass exactly; the top bin has no advective
    outflow and bin 0 does not halve (the w >= 1 floor). *)

val renormalize : float array -> unit
(** Clip negative mass and rescale to total 1 in place. *)
