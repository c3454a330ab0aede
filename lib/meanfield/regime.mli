(** (w_q, max_p, n) stable/oscillatory regime map.

    A canonical scenario family for RED tuning studies: n TCP flows
    (100 pkt/s fair share each, 100 ms RTT) plus an n-receiver RLA
    session through a RED bottleneck whose thresholds scale linearly
    with n (5/15 packets at the n = 8 baseline).  Each grid point is
    classified twice — by integrating the mean field ({!Solver.run})
    and by the closed-form criterion ({!Stability.evaluate}) — and
    the two verdicts are compared. *)

type point = { w_q : float; max_p : float; n : int }

type classification = {
  point : point;
  verdict : Solver.verdict;  (** Integrated-trajectory verdict. *)
  amplitude : float;  (** Tail avg-queue amplitude (packets). *)
  period : float option;  (** Limit-cycle period when oscillatory. *)
  queue_mean : float;
  drop_mean : float;
  fairness_ratio : float;  (** RLA over mean TCP per-flow rate. *)
  criterion_stable : bool;  (** Closed-form criterion verdict. *)
  tau_crit : float;
  rtt_star : float;
  agree : bool;  (** Both verdicts coincide. *)
}

val share : float
(** Per-flow fair share (100 pkts/s). *)

val rtt : float
(** Common propagation RTT (0.1 s). *)

val params_for : ?bins:int -> ?t_max:float -> point -> Params.t
(** The canonical configuration at a grid point. *)

val classify : ?bins:int -> ?t_max:float -> point -> classification

val default_grid : unit -> point list
(** Cartesian product of the default axes, n-major. *)
