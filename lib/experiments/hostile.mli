(** Hostile-workload suite: the sharing experiment under adversarial
    TCP traffic.

    Reuses the paper's fig-6 population (one RLA session to every
    leaf, one background TCP per leaf) — or a single-network k-ary
    scale tree — and adds one configurable adversary from
    {!Adversary}: a non-backoff constant-rate blaster, an
    ack-division attacker, an optimistic acker hijacking a background
    flow, or a blind RST injector driven through a scripted
    {!Faults.Timeline}.  Every mix is deterministic — no adversary
    draws from any RNG — so runs are byte-identical across repeats
    and [--jobs] counts, and the no-adversary mix runs the exact
    Sharing pipeline (same setup order, same measure), matching its
    goldens to the last bit. *)

type mix = Honest | Nonbackoff | Ackdiv | Optack | Rst

val all_mixes : mix list
(** [Honest; Nonbackoff; Ackdiv; Optack; Rst]. *)

type topology =
  | Fig6 of Tree.case  (** The paper's 27-leaf tree. *)
  | Kary of { fanout : int; depth : int }
      (** Complete k-ary tree on one event loop (PR 7's scale shape);
          every leaf is a receiver, fanout >= 2, depth >= 2. *)

type config = {
  topology : topology;
  gateway : Scenario.gateway;
  mix : mix;
  duration : float;
  warmup : float;
  seed : int;
  share : float;  (** Soft-bottleneck equal share, pkt/s. *)
  flood_rate : float;  (** Nonbackoff blast rate, pkt/s. *)
  ackdiv_split : int;  (** Acks per data packet for the divider. *)
  optack_lookahead : int;
      (** 0 conceals losses (undetectable); > 0 acks unsent data and
          is counted in the victim's ghost_acks. *)
  rst_count : int;  (** Blind RSTs injected after warmup. *)
  rst_interval : float;  (** Seconds between injections. *)
  rst_strict : bool;
      (** RFC 5961 validation at the victim; [false] models a legacy
          stack that any in-window RST kills. *)
}

val default_config : mix:mix -> config
(** Fig-6 case 3, drop-tail, 300 s / 100 s warmup, seed 1, 100 pkt/s
    shares; flood 400 pkt/s, split 4, lookahead 0, 40 RSTs every 4 s,
    strict RFC 5961. *)

type result = {
  config : config;
  label : string;  (** "<topology>/<mix>". *)
  n_receivers : int;
  rla_rate : float;
  wtcp_rate : float;  (** Worst honest-population TCP send rate. *)
  btcp_rate : float;
  ratio : float;  (** RLA / worst-TCP, the theorem's quantity. *)
  jain_honest : float;  (** Jain over RLA + the background TCPs. *)
  jain_all : float;  (** Same, with the adversary's flow included. *)
  bounds : float * float;
  essentially_fair : bool;
  adv_send_rate : float;  (** Adversary pkt/s on the wire (0 for none/rst). *)
  adv_delivered_rate : float;
  ghost_acks : int;  (** Victim-sender acks dropped by validation (optack). *)
  rst_accepted : int;
  rst_challenged : int;
  rst_dropped : int;
  rst_injected : int;
  victim_closed : bool;  (** An injected RST tore the victim down. *)
}

val run : ?registry:Obs.Registry.t -> config -> result

val print : Format.formatter -> result list -> unit

val csv_header : string

val to_csv_row : result -> string
(** One deterministic CSV line (fixed float precision) — the
    hostile-smoke byte-compare artifact. *)

val to_json : result -> Runner.Json.t

val sweep :
  mixes:mix list ->
  case_index:int ->
  ?duration:float ->
  ?warmup:float ->
  ?seeds:int list ->
  ?jobs:int ->
  unit ->
  result Runner.Pool.outcome list
(** Run every [mix x seed] combination of the fig-6 scenario on a
    domain pool; per-run results are bit-identical for any [jobs]. *)
