(** Structured export of a sweep's outcomes: a [BENCH_sweep.json]-style
    document with per-job timing, events-fired and memory metrics, plus
    caller-supplied payload fields (fairness numbers, case ids, ...).

    Schema:
    {[
      {
        "name": "<sweep name>",
        "jobs": <domain count>,
        "runs_total": <job count>,
        "wall_s": <whole-sweep wall clock>,
        "runs": [
          {
            "label": "<job label>",
            "wall_s": <per-job wall clock>,
            "events_fired": <scheduler events>,
            "allocated_mb": <MB allocated>,
            "peak_heap_mb": <heap high-water mark>,
            ...payload fields...
          }, ...
        ],
        ...extra fields...
      }
    ]} *)

val sweep_json :
  name:string ->
  jobs:int ->
  wall_s:float ->
  ?extra:(string * Json.t) list ->
  ('a Pool.outcome -> (string * Json.t) list) ->
  'a Pool.outcome list ->
  Json.t
(** [sweep_json ~name ~jobs ~wall_s payload outcomes] builds the
    document above; [payload] contributes per-run fields appended after
    the metrics. *)

val run_row_json :
  ('a Pool.outcome -> (string * Json.t) list) -> 'a Pool.outcome -> Json.t
(** One entry of the ["runs"] array (label, metrics, payload fields).
    Exposed so resumable sweeps can persist finished rows and splice
    them into a later {!sweep_json_of_rows} call. *)

val sweep_json_of_rows :
  name:string ->
  jobs:int ->
  wall_s:float ->
  ?extra:(string * Json.t) list ->
  Json.t list ->
  Json.t
(** {!sweep_json} over pre-built rows (see {!run_row_json}); rows are
    emitted in the given order. *)

val write_file : path:string -> Json.t -> unit
(** Write the document to [path] followed by a newline. *)

val pp_metrics_table :
  Format.formatter -> 'a Pool.outcome list -> unit
(** Human-readable per-job metrics table (label, wall s, events,
    allocation). *)

(** {2 Observability exports} *)

val registry_json : Obs.Registry.t -> Json.t
(** Full registry dump: [{"counters": {...}, "gauges": {...},
    "series": [{"name", "samples", "offered", "stride", "times",
    "values"}, ...]}].  Enumeration order is creation order, so the
    same seed yields byte-identical documents.  Each [times] and
    [values] array is one pre-rendered {!Json.Verbatim} fragment,
    serialized exactly as a [List] of [Float]s would be. *)

val flow_series_csv : Format.formatter -> Obs.Registry.t -> unit
(** Figure-7/8/9-style per-flow trace: a [time,flow,cwnd,bytes_acked]
    row for every stored sample of every ["<flow>.cwnd"] series that
    has a ["<flow>.bytes_acked"] sibling (TCP and RLA flow probes
    guarantee the pair is sampled at identical times).  Rows are
    grouped by flow in creation order, time-ascending within a flow;
    deterministic for a fixed seed. *)
