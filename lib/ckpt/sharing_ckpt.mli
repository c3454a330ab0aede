(** Checkpoint/restore for the paper's main (tree-sharing) experiment.

    A checkpoint file is fully self-contained: it embeds the
    {!Experiments.Sharing.config}, so restore rebuilds the identical
    topology with {!Experiments.Sharing.setup} (deterministic creation
    order), overlays every component's captured state, re-arms all
    pending events under their original ids, and refuses to resume if
    any checkpointed event went unclaimed.  A run restored at time [T]
    and driven to [2T] is byte-identical — trace CSV, registry JSON and
    fairness tables — to the uninterrupted run.

    Supported runs are the plain sharing scenario (RLA session + 27
    background TCPs).  Fault-injected runs are not checkpointable from
    the CLI — the churn driver owns extra flow state outside the
    session — but {!Faults.Injector.capture} exists and is exercised in
    unit tests. *)

type meta = { time : float; n_tcps : int }

val read_meta :
  Codec.section list -> (meta * Experiments.Sharing.config, Codec.error) result
(** Decode just the [meta] and [config] sections (cheap inspection —
    no topology rebuild). *)

val save :
  path:string ->
  time:float ->
  config:Experiments.Sharing.config ->
  session:Experiments.Sharing.session ->
  ?registry:Obs.Registry.t ->
  ?journal:Journal.t ->
  unit ->
  unit
(** Capture the complete simulation into [path] (write-then-rename).
    [time] must be the current simulation clock.  Capture is passive:
    no events scheduled, no RNG draws, so saving never perturbs the
    run. *)

type error =
  | Codec_error of Codec.error
  | Unclaimed_events of Sim.Scheduler.event_id list
      (** The checkpoint recorded pending events no component re-armed
          — refusing to resume beats silently dropping them. *)

val error_to_string : error -> string

type loaded = {
  config : Experiments.Sharing.config;
  session : Experiments.Sharing.session;
  registry : Obs.Registry.t option;
      (** Rebuilt and restored when the checkpointed run was
          instrumented; journal taps are re-attached on resume. *)
  journal : Journal.t option;
  time : float;  (** Clock at capture; the session is poised there. *)
}

val load : path:string -> (loaded, error) result
(** Rebuild and restore.  Never raises: truncation, corruption and
    mismatched topology all come back as [Error]. *)

val run_with_checkpoints :
  ?registry:Obs.Registry.t ->
  ?journal:Journal.t ->
  every:float ->
  dir:string ->
  prefix:string ->
  Experiments.Sharing.config ->
  Experiments.Sharing.result
(** The canonical checkpointed run loop: set the session up, then
    advance to [duration] saving [dir]/[prefix]_t<time>.ckpt at every
    multiple of [every] (boundaries are slice points of the ordinary
    run loop, so results are byte-identical to
    {!Experiments.Sharing.run}).  [dir] is created if missing. *)

val resume_run :
  ?every:float ->
  ?dir:string ->
  ?prefix:string ->
  loaded ->
  Experiments.Sharing.result
(** Continue a loaded checkpoint to its config's [duration], applying
    the warm-up measurement reset only if the checkpoint predates it.
    With [every]/[dir] supplied, keeps writing checkpoints at the same
    boundaries the original run would have hit. *)

val checkpoint_file : dir:string -> prefix:string -> time:float -> string
(** The path [run_with_checkpoints] writes for a given boundary. *)
