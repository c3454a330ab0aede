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

let series_json s =
  Json.Obj
    [
      ("name", Json.String (Obs.Series.name s));
      ("samples", Json.Int (Obs.Series.length s));
      ("offered", Json.Int (Obs.Series.offered s));
      ("stride", Json.Int (Obs.Series.stride s));
      ("times", Json.Floats (Obs.Series.times s));
      ("values", Json.Floats (Obs.Series.values s));
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
   both deterministic, so the same seed yields byte-identical output.
   Each row is "%.6f,%s,%.6f,%.0f". *)
let add_flow_rows buf reg =
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
                Json.add_fixed buf 6 ts.(i);
                Buffer.add_char buf ',';
                Buffer.add_string buf flow;
                Buffer.add_char buf ',';
                Json.add_fixed buf 6 cwnds.(i);
                Buffer.add_char buf ',';
                Json.add_fixed buf 0 bs.(i);
                Buffer.add_char buf '\n'
              done))
    (Obs.Registry.all_series reg)

let flow_csv_header = "time,flow,cwnd,bytes_acked\n"

(* The rows go to [ppf] as one string; the final flush leaves [ppf] as
   the per-row newlines of [Format] would. *)
let flow_series_csv ppf reg =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf flow_csv_header;
  add_flow_rows buf reg;
  Format.pp_print_string ppf (Buffer.contents buf);
  Format.pp_print_flush ppf ()

let pp_metrics_table ppf outcomes =
  Format.fprintf ppf "%-24s %10s %14s %12s@." "job" "wall (s)" "events"
    "alloc (MB)";
  List.iter
    (fun (o : _ Pool.outcome) ->
      let m = o.Pool.metrics in
      Format.fprintf ppf "%-24s %10.3f %14d %12.1f@." o.Pool.label
        m.Metrics.wall_s m.Metrics.events_fired m.Metrics.allocated_mb)
    outcomes
