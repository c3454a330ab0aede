(** Short-flow opportunity.

    Section 2 of the paper limits its fairness guarantees to long-lived
    connections but promises that the RLA "does provide opportunities
    for [short-lived connections] to be set up and to transmit data".
    This experiment injects short TCP flows (Poisson arrivals) into a
    bottleneck occupied by a configurable long-lived background —
    nothing, a persistent TCP, the RLA, or an uncontrolled CBR blast —
    and compares the short flows' completion times.  A well-behaved
    background leaves completion times close to the TCP-background
    reference; CBR starves them. *)

type background =
  | Bg_none
  | Bg_tcp  (** One persistent TCP per branch. *)
  | Bg_rla  (** An RLA session over all branches. *)
  | Bg_cbr of float  (** Constant-rate multicast at this rate (pkt/s). *)

type config = {
  background : background;
  flow_size : int;  (** Packets per short flow (paper-era web object). *)
  arrival_rate : float;  (** Short-flow arrivals per second (Poisson). *)
  share : float;  (** Per-branch bottleneck fair share, pkt/s. *)
  duration : float;
  warmup : float;
  seed : int;
}

val default_config : background -> config
(** 20-packet flows, one arrival per 2 s, 100 pkt/s shares, 300 s. *)

type result = {
  config : config;
  launched : int;  (** Short flows started after warm-up. *)
  completed : int;
  mean_completion : float;  (** Seconds; completed flows only. *)
  p95_completion : float;
  background_throughput : float;  (** Long-lived background's goodput. *)
}

val run : config -> result

val print : Format.formatter -> result list -> unit
