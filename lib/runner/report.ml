let run_json payload (o : _ Pool.outcome) =
  let m = o.Pool.metrics in
  Json.Obj
    ([
       ("label", Json.String o.Pool.label);
       ("wall_s", Json.Float m.Metrics.wall_s);
       ("events_fired", Json.Int m.Metrics.events_fired);
       ("allocated_mb", Json.Float m.Metrics.allocated_mb);
       ("peak_heap_mb", Json.Float m.Metrics.peak_heap_mb);
     ]
    @ payload o)

let run_row_json = run_json

let sweep_json_of_rows ~name ~jobs ~wall_s ?(extra = []) rows =
  Json.Obj
    ([
       ("name", Json.String name);
       ("jobs", Json.Int jobs);
       ("runs_total", Json.Int (List.length rows));
       ("wall_s", Json.Float wall_s);
       ("runs", Json.List rows);
     ]
    @ extra)

let sweep_json ~name ~jobs ~wall_s ?extra payload outcomes =
  sweep_json_of_rows ~name ~jobs ~wall_s ?extra
    (List.map (run_json payload) outcomes)

let write_file ~path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* --- observability exports ------------------------------------------ *)

(* A float array as one pre-rendered fragment: the document holds one
   string per array rather than a node per sample. *)
let float_array xs =
  let buf = Buffer.create ((20 * Array.length xs) + 2) in
  Buffer.add_char buf '[';
  Array.iteri
    (fun i x ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf (Json.to_string (Json.Float x)))
    xs;
  Buffer.add_char buf ']';
  Json.Verbatim (Buffer.contents buf)

let series_json s =
  Json.Obj
    [
      ("name", Json.String (Obs.Series.name s));
      ("samples", Json.Int (Obs.Series.length s));
      ("offered", Json.Int (Obs.Series.offered s));
      ("stride", Json.Int (Obs.Series.stride s));
      ("times", float_array (Obs.Series.times s));
      ("values", float_array (Obs.Series.values s));
    ]

let registry_json reg =
  Json.Obj
    [
      ( "counters",
        Json.Obj
          (List.map (fun (n, c) -> (n, Json.Int c)) (Obs.Registry.counters reg))
      );
      ( "gauges",
        Json.Obj
          (List.map (fun (n, v) -> (n, Json.Float v)) (Obs.Registry.gauges reg))
      );
      ("series", Json.List (List.map series_json (Obs.Registry.all_series reg)));
    ]

(* Per-flow trace export: every series named "<flow>.cwnd" is joined
   with its "<flow>.bytes_acked" sibling.  The two series are sampled
   at the same call points with the same decimation limit, so their
   sample times coincide (see [Obs.Series]); zipping by index is exact.
   Flows appear in registry creation order and samples in time order,
   both deterministic, so the same seed yields byte-identical output. *)
let flow_series_csv ppf reg =
  Format.fprintf ppf "time,flow,cwnd,bytes_acked@.";
  List.iter
    (fun s ->
      let name = Obs.Series.name s in
      match Filename.check_suffix name ".cwnd" with
      | false -> ()
      | true -> (
          let flow = Filename.chop_suffix name ".cwnd" in
          match Obs.Registry.find_series reg (flow ^ ".bytes_acked") with
          | None -> ()
          | Some bytes ->
              let ts = Obs.Series.times s
              and cwnds = Obs.Series.values s
              and bs = Obs.Series.values bytes in
              let n = Stdlib.min (Array.length ts) (Array.length bs) in
              for i = 0 to n - 1 do
                Format.fprintf ppf "%.6f,%s,%.6f,%.0f@." ts.(i) flow cwnds.(i)
                  bs.(i)
              done))
    (Obs.Registry.all_series reg)

let pp_metrics_table ppf outcomes =
  Format.fprintf ppf "%-24s %10s %14s %12s@." "job" "wall (s)" "events"
    "alloc (MB)";
  List.iter
    (fun (o : _ Pool.outcome) ->
      let m = o.Pool.metrics in
      Format.fprintf ppf "%-24s %10.3f %14d %12.1f@." o.Pool.label
        m.Metrics.wall_s m.Metrics.events_fired m.Metrics.allocated_mb)
    outcomes
