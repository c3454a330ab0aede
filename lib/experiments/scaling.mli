(** Receiver-count scaling.

    Section 2.1's minimum requirement for reasonable fairness: the
    multicast session's throughput must not diminish to zero as the
    number of receivers grows (a sender that reacted to {e every}
    congestion signal would collapse like 1/N).  This experiment sweeps
    N receivers on a uniform star whose branches are each shared with
    one TCP flow, and reports the RLA's throughput and fairness ratio
    per N. *)

type config = {
  ns : int list;  (** Receiver counts to sweep. *)
  gateway : Scenario.gateway;
  share : float;  (** Per-branch fair share, pkt/s. *)
  duration : float;
  warmup : float;
  seed : int;
  rla_params : Rla.Params.t;
}

val default_config : config
(** N in 2, 4, 8, 16, 32; drop-tail; 100 pkt/s shares. *)

type point = {
  n : int;
  rla_throughput : float;
  rla_cwnd : float;
  wtcp_throughput : float;
  ratio : float;
  jain : float;
      (** Jain's index over the RLA session and all N competing TCPs
          (1 = perfectly equal shares). *)
  congestion_signals : int;
  window_cuts : int;
}

val run : config -> point list

val print : Format.formatter -> point list -> unit

(** {2 Sharded scaling}

    The 10k-receiver regime is out of reach for one event loop, so the
    sharded variant drives a deep k-ary tree through the conservative
    parallel engine ({!Par.Engine}): the partitioner cuts the slow
    root links (one shard per branch plus the root), every leaf joins
    the RLA session, and one competing TCP runs inside each branch.
    Results are byte-identical for any [workers] value. *)

type sharded_config = {
  fanout : int;
  depth : int;  (** >= 2: the TCP pairs need an interior branch hop. *)
  workers : int;  (** Domains per barrier round; results-invariant. *)
  share : float;  (** Per-branch fair share, pkt/s. *)
  duration : float;
  warmup : float;
  seed : int;
  rla_params : Rla.Params.t;
}

val default_sharded_config : sharded_config
(** Fanout 22, depth 3: 10648 receivers on 11155 nodes across 23
    shards with a 20 ms lookahead. *)

val run_sharded :
  ?checkpoint:float * string ->
  sharded_config ->
  (Par.Scenario.result, Par.Scenario.error) Stdlib.result
(** [checkpoint] is rejected with {!Par.Scenario.Checkpoint_unsupported}
    (sharded runs are not checkpointable). *)

val print_sharded : Format.formatter -> Par.Scenario.result -> unit
