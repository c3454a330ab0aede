(** The {!Sharing} experiment under deterministic fault injection.

    Runs the figure-6 tertiary tree — one RLA session to all 27 leaves
    plus one background TCP per leaf — while a {!Faults.Timeline}
    perturbs it: link outages and repairs, runtime bandwidth/delay
    changes, receiver leave/join (driving [pthresh] recomputation
    through {!Rla.Sender.drop_receiver}/{!Rla.Sender.add_receiver}),
    and competing-flow churn.  The run is cut into {e epochs} at each
    fault time and the essential-fairness ratio is reported per epoch,
    so one run shows how fairness degrades during an outage and
    recovers after it.

    Determinism: the timeline is fixed before the run and the injector
    draws no randomness, so for a given seed the result — including
    every epoch number — is bit-identical across repeats and worker
    counts.  With [faults = No_faults] the run is byte-identical to
    {!Sharing.run} on the same config. *)

type gen = {
  gen_seed : int;  (** Seed of the generation stream (independent of the
                       simulation seed). *)
  outage_rate : float;  (** Link outages per second (Poisson). *)
  churn_rate : float;  (** Receiver leaves per second. *)
  flow_rate : float;  (** Competing-flow starts per second. *)
}

type spec =
  | No_faults  (** Control: identical to {!Sharing.run}. *)
  | Default_script
      (** One leaf-link outage, one leave + rejoin, one short-lived
          competing TCP — all scaled into the measurement window. *)
  | Scripted of Faults.Timeline.t
  | Generated of gen  (** Poisson churn drawn from [gen_seed]. *)

type config = { sharing : Sharing.config; faults : spec }

type epoch = {
  t_start : float;
  t_end : float;
  rla_send_rate : float;  (** Packets on the wire per second, this epoch. *)
  wtcp_send_rate : float;  (** Worst background TCP, this epoch. *)
  ratio : float;
  jain : float;
      (** Jain's index over the RLA session and every background TCP's
          per-epoch rate (1 = perfectly equal shares). *)
  bounds : float * float;
      (** Essential-fairness bounds for the epoch's membership. *)
  essentially_fair : bool;
  n_active : int;  (** Active RLA receivers at the epoch's end. *)
  events : string list;
      (** Fault events applied during the epoch (skipped ones marked). *)
}

type result = {
  config : config;
  sharing : Sharing.result;  (** Whole-window measurement. *)
  epochs : epoch list;
  timeline : Faults.Timeline.t;
  injected : int;
  skipped : int;
  outages : int;
  downtime : float;
  flows_started : int;
  flows_stopped : int;
}

val run : ?registry:Obs.Registry.t -> config -> result

val run_with_net : ?registry:Obs.Registry.t -> config -> Net.Network.t * result

val job : label:string -> config -> result Runner.Job.t
(** Package one run for a {!Runner.Pool} sweep (the network is built
    inside the closure, so the job is domain-safe). *)

val case_config :
  gateway:Scenario.gateway ->
  case_index:int ->
  ?duration:float ->
  ?warmup:float ->
  ?seed:int ->
  ?faults:spec ->
  unit ->
  config
(** Paper case numbering 1-5; [faults] defaults to {!Default_script}. *)

val sweep :
  gateway:Scenario.gateway ->
  case_indices:int list ->
  ?duration:float ->
  ?warmup:float ->
  ?seeds:int list ->
  ?faults:spec ->
  ?jobs:int ->
  unit ->
  result Runner.Pool.outcome list
(** Every [case x seed] combination on a domain pool; per-run results
    (including epoch tables) are bit-identical for any [jobs] count. *)

val print : Format.formatter -> result -> unit
(** Per-epoch fairness table. *)

val to_json : result -> Runner.Json.t
(** Benchmark payload ([BENCH_churn.json] entry). *)
