(** The paper's fairness vocabulary (section 2.2 and section 4).

    A restricted topology is described by its branches: branch [i] has
    bottleneck capacity [mu_i] (pkt/s) and [m_i] competing TCP flows.
    The soft bottleneck is the branch minimising [mu_i / (m_i + 1)];
    absolute fairness means the multicast session gets exactly that
    share; essential fairness bounds the multicast throughput within
    [a * tcp, b * tcp] of the soft-bottleneck TCP throughput. *)

type branch = {
  mu : float;  (** Bottleneck capacity along the branch, pkt/s. *)
  tcp_flows : int;  (** Competing TCP connections on the branch. *)
}

type gateway = Red | Droptail

val essential_bounds : gateway -> n:int -> float * float
(** [(a, b)] of Theorem I (RED: a = 1/3, b = sqrt(3n)) or Theorem II
    (drop-tail with phase effects eliminated: a = 1/4, b = 2n), for
    [n] receivers persistently reporting congestion. *)

val is_essentially_fair :
  gateway -> n:int -> rla_throughput:float -> tcp_throughput:float -> bool
(** Check a measured pair of throughputs against the theorem bounds. *)

val measured_ratio : rla_throughput:float -> tcp_throughput:float -> float
(** The empirical [c] such that [rla = c * tcp]; [infinity] when the
    TCP throughput is zero. *)

val jain : float list -> float
(** Jain's fairness index [(sum x)^2 / (n * sum x^2)] over per-branch
    allocations: 1 when all equal, [1/n] when one branch takes
    everything.  An all-zero allocation is treated as perfectly fair
    (index 1).  Raises [Invalid_argument] on the empty list. *)

module For_testing : sig
  (** The section 2.2 soft-bottleneck vocabulary; its tests reproduce the
      paper's definitions, and ROADMAP item 1's fairness verdict will be their
      first product caller. *)

  val share : branch -> float
  (** [mu / (m + 1)]: the equal share on this branch. *)

  val soft_bottleneck : branch list -> int
  (** Index of the branch with the smallest equal share; raises
      [Invalid_argument] on an empty list. *)

  val fair_share : branch list -> float
  (** [min_i mu_i / (m_i + 1)] — the absolutely fair multicast
      throughput. *)
end
