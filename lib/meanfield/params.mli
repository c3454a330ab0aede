(** Configuration of the mean-field solver.

    Describes one RED bottleneck shared by heterogeneous traffic
    classes: any number of TCP classes (each [flows] identical AIMD
    connections at a common round-trip time) plus at most one RLA
    multicast session modelled through
    {!Analysis.Rla_model.drift_rate_common}'s 1/n listening filter.
    All rates are in packets per second, queues in packets, times in
    seconds. *)

type red = {
  min_th : float;  (** RED lower threshold (packets of averaged queue). *)
  max_th : float;  (** RED upper threshold. *)
  w_q : float;  (** EWMA weight per arriving packet. *)
  max_p : float;  (** Drop probability at [max_th]. *)
}

type tcp_class = {
  flows : int;  (** Number of identical AIMD flows in the class. *)
  rtt : float;  (** Propagation round-trip time (queueing is added). *)
}

type rla = {
  receivers : int;  (** Multicast group size [n] for the 1/n filter. *)
  rtt : float;  (** Propagation round-trip time of the RLA session. *)
}

type t = {
  capacity : float;  (** Bottleneck service rate (pkts/s). *)
  buffer : float;  (** Physical queue limit (pkts); may be [infinity]. *)
  red : red;
  tcp_classes : tcp_class list;
  rla : rla option;
  count_uniformization : bool;
      (** Model the simulator's count-based drop spacing
          ([p_eff = 2 p_b / (1 + p_b)]) instead of raw [p_b]. *)
  bins : int;  (** Window-histogram resolution per TCP class. *)
  w_max : float option;  (** Histogram ceiling; [None] = auto. *)
  dt : float option;  (** RK4 step; [None] = CFL auto. *)
  t_max : float;  (** Integration horizon (model seconds). *)
  sample_every : float;  (** Trajectory sampling period. *)
  settle : float;  (** Transient to ignore before steadiness checks. *)
  steady_tol : float;
      (** Steady iff the tail avg-queue amplitude is below
          [steady_tol * (max_th - min_th)]. *)
}

val make :
  ?buffer:float ->
  ?red:red ->
  ?rla:rla ->
  ?count_uniformization:bool ->
  ?bins:int ->
  ?w_max:float ->
  ?dt:float ->
  ?t_max:float ->
  ?sample_every:float ->
  ?settle:float ->
  ?steady_tol:float ->
  capacity:float ->
  tcp_class list ->
  t
(** Build a configuration with sensible defaults (RED min_th 5,
    max_th 15, w_q 0.002, max_p 0.1; 64 bins, auto [w_max] / [dt], 30 s horizon). *)

val validate : t -> unit
(** Raises [Invalid_argument] on inconsistent configurations. *)

val w_max_auto : t -> float
(** Effective histogram ceiling: explicit [w_max] or
    [max 16 (4 * capacity * max_rtt / flows)]. *)

val dt_auto : t -> float
(** Effective RK4 step: explicit [dt] or the CFL bound
    [0.5 * min_rtt / max w_max (bins / w_max)]. *)

val drop_of_avg : t -> float -> float
(** Effective drop probability at a given averaged queue. *)

val avg_of_drop : t -> float -> float
(** Inverse of {!drop_of_avg} on the linear RED segment (clamped to
    [[min_th, max_th]] outside it). *)

val drop_slope : t -> float -> float
(** Derivative of {!drop_of_avg} at a given averaged queue (zero off
    the linear segment). *)
