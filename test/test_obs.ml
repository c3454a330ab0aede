(* Tests for the observability layer: bounded series decimation, the
   metrics registry (interning, enumeration order, event taps), the
   per-flow CSV exporter's alignment assumption, and the zero-cost
   invariant — a run with a registry installed is bit-identical to one
   without. *)

let check_float = Alcotest.(check (float 1e-9))
let check_exact = Alcotest.(check (float 0.0))

(* ------------------------------------------------------------------ *)
(* Series                                                             *)
(* ------------------------------------------------------------------ *)

let test_series_basic () =
  let s = Obs.Series.create "x" in
  Alcotest.(check string) "name" "x" (Obs.Series.name s);
  Alcotest.(check int) "empty" 0 (Obs.Series.length s);
  Obs.Series.add s ~time:1.0 10.0;
  Obs.Series.add s ~time:2.0 20.0;
  Obs.Series.add s ~time:3.0 30.0;
  Alcotest.(check int) "three stored" 3 (Obs.Series.length s);
  Alcotest.(check int) "three offered" 3 (Obs.Series.offered s);
  Alcotest.(check int) "stride 1" 1 (Obs.Series.stride s);
  Alcotest.(check (array (float 0.0)))
    "times" [| 1.0; 2.0; 3.0 |] (Obs.Series.times s);
  Alcotest.(check (array (float 0.0)))
    "values" [| 10.0; 20.0; 30.0 |] (Obs.Series.values s)

let test_series_limit_validated () =
  Alcotest.(check bool) "limit 1 rejected" true
    (try
       ignore (Obs.Series.create ~limit:1 "bad");
       false
     with Invalid_argument _ -> true)

let test_series_bounded () =
  let limit = 64 in
  let s = Obs.Series.create ~limit "bounded" in
  for i = 1 to 10_000 do
    Obs.Series.add s ~time:(float_of_int i) (float_of_int i)
  done;
  Alcotest.(check bool) "within limit" true (Obs.Series.length s <= limit);
  Alcotest.(check int) "all offers counted" 10_000 (Obs.Series.offered s);
  let stride = Obs.Series.stride s in
  Alcotest.(check bool) "stride is a power of two" true
    (stride land (stride - 1) = 0);
  (* Stored samples stay time-ordered and value-aligned. *)
  let ts = Obs.Series.times s and vs = Obs.Series.values s in
  for i = 1 to Array.length ts - 1 do
    if ts.(i) <= ts.(i - 1) then Alcotest.fail "times not increasing"
  done;
  Array.iteri (fun i t -> check_exact "value = time here" t vs.(i)) ts;
  (* The subsample still spans most of the run. *)
  Alcotest.(check bool) "covers the tail" true
    (ts.(Array.length ts - 1) > 9000.0)

let prop_series_decimation_pure =
  (* Decimation depends only on the sequence of add calls: two series
     with the same limit offered samples at the same call points store
     exactly the same sample times — the invariant the per-flow CSV
     join relies on. *)
  QCheck.Test.make ~name:"sibling series keep aligned sample times"
    ~count:100
    QCheck.(pair (int_range 2 20) (list (float_bound_exclusive 100.0)))
    (fun (limit, values) ->
      let a = Obs.Series.create ~limit "a" in
      let b = Obs.Series.create ~limit "b" in
      List.iteri
        (fun i v ->
          let time = float_of_int i in
          Obs.Series.add a ~time v;
          Obs.Series.add b ~time (v *. 2.0))
        values;
      Obs.Series.times a = Obs.Series.times b
      && Obs.Series.length a <= limit
      && Obs.Series.offered a = List.length values)

(* ------------------------------------------------------------------ *)
(* Registry                                                           *)
(* ------------------------------------------------------------------ *)

let test_registry_counters () =
  let reg = Obs.Registry.create () in
  let c1 = Obs.Registry.counter reg "drops" in
  let c2 = Obs.Registry.counter reg "drops" in
  Obs.Registry.incr c1;
  for _ = 1 to 4 do
    Obs.Registry.incr c2
  done;
  Alcotest.(check (list (pair string int)))
    "interned: one cell" [ ("drops", 5) ] (Obs.Registry.counters reg);
  ignore (Obs.Registry.counter reg "marks");
  Alcotest.(check (list (pair string int)))
    "creation-order enumeration"
    [ ("drops", 5); ("marks", 0) ]
    (Obs.Registry.counters reg)

let test_registry_gauges () =
  let reg = Obs.Registry.create () in
  let g = Obs.Registry.gauge reg "ssthresh" in
  Alcotest.(check (list (pair string (float 0.0))))
    "starts at 0" [ ("ssthresh", 0.0) ] (Obs.Registry.gauges reg);
  Obs.Registry.set g 12.5;
  Obs.Registry.set (Obs.Registry.gauge reg "ssthresh") 13.0;
  Alcotest.(check (list (pair string (float 0.0))))
    "enumeration" [ ("ssthresh", 13.0) ]
    (Obs.Registry.gauges reg)

let test_registry_series () =
  let reg = Obs.Registry.create ~series_limit:8 () in
  let s = Obs.Registry.series reg "q" in
  Alcotest.(check int) "registry limit applies" 8 (Obs.Series.limit s);
  Obs.Series.add (Obs.Registry.series reg "q") ~time:1.0 3.0;
  Alcotest.(check int) "sample reaches interned series" 1
    (Obs.Series.length s);
  Alcotest.(check bool) "find_series hit" true
    (Obs.Registry.find_series reg "q" = Some s);
  Alcotest.(check bool) "find_series miss" true
    (Obs.Registry.find_series reg "nope" = None);
  ignore (Obs.Registry.series reg "r");
  Alcotest.(check (list string))
    "creation-order enumeration" [ "q"; "r" ]
    (List.map Obs.Series.name (Obs.Registry.all_series reg))

let test_registry_events () =
  let reg = Obs.Registry.create () in
  (* Emitting with no taps subscribed is a silent no-op. *)
  Obs.Registry.emit reg ~time:0.0 ~source:"x" ~event:"drop" ~value:1.0;
  let seen = ref [] in
  Obs.Registry.on_event reg (fun e -> seen := e :: !seen);
  Obs.Registry.emit reg ~time:2.5 ~source:"link.a" ~event:"mark" ~value:7.0;
  match !seen with
  | [ e ] ->
      check_float "time" 2.5 e.Obs.Registry.time;
      Alcotest.(check string) "source" "link.a" e.Obs.Registry.source;
      Alcotest.(check string) "event" "mark" e.Obs.Registry.event;
      check_float "value" 7.0 e.Obs.Registry.value
  | l -> Alcotest.failf "expected exactly one event, got %d" (List.length l)

(* ------------------------------------------------------------------ *)
(* Exporter alignment                                                 *)
(* ------------------------------------------------------------------ *)

let test_flow_series_csv_shape () =
  let reg = Obs.Registry.create () in
  let cwnd = Obs.Registry.series reg "tcp.flow1.cwnd" in
  let bytes = Obs.Registry.series reg "tcp.flow1.bytes_acked" in
  (* An unpaired cwnd series must be skipped, not crash the export. *)
  ignore (Obs.Registry.series reg "orphan.cwnd");
  for i = 1 to 3 do
    let time = float_of_int i in
    Obs.Series.add cwnd ~time (float_of_int (i * 2));
    Obs.Series.add bytes ~time (float_of_int (i * 100))
  done;
  let buf = Buffer.create 256 in
  let ppf = Format.formatter_of_buffer buf in
  Runner.Report.flow_series_csv ppf reg;
  Format.pp_print_flush ppf ();
  let lines =
    String.split_on_char '\n' (Buffer.contents buf)
    |> List.filter (fun l -> l <> "")
  in
  Alcotest.(check (list string))
    "header plus one row per paired sample"
    [
      "time,flow,cwnd,bytes_acked";
      "1.000000,tcp.flow1,2.000000,100";
      "2.000000,tcp.flow1,4.000000,200";
      "3.000000,tcp.flow1,6.000000,300";
    ]
    lines

(* ------------------------------------------------------------------ *)
(* Zero-cost invariant (determinism regression)                       *)
(* ------------------------------------------------------------------ *)

let small_config =
  let base =
    Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
      ~case:(Experiments.Tree.case_of_index 3)
  in
  { base with Experiments.Sharing.duration = 30.0; warmup = 10.0; seed = 42 }

let test_probes_do_not_perturb_run () =
  (* Same seed, probes off vs on: fairness numbers and event counts
     must be bit-identical (the instrumentation never schedules events
     or draws RNG). *)
  let net_plain, plain = Experiments.Sharing.run_with_net small_config in
  let registry = Obs.Registry.create () in
  let net_obs, obs =
    Experiments.Sharing.run_with_net ~registry small_config
  in
  let fired net = Sim.Scheduler.events_fired (Net.Network.scheduler net) in
  Alcotest.(check int) "event counts identical" (fired net_plain)
    (fired net_obs);
  check_exact "fairness ratio bit-identical"
    plain.Experiments.Sharing.ratio obs.Experiments.Sharing.ratio;
  check_exact "worst-TCP send rate bit-identical"
    plain.Experiments.Sharing.wtcp.Tcp.Sender.send_rate
    obs.Experiments.Sharing.wtcp.Tcp.Sender.send_rate;
  Alcotest.(check bool) "fairness verdict identical"
    plain.Experiments.Sharing.essentially_fair
    obs.Experiments.Sharing.essentially_fair;
  (* The registry actually observed the run. *)
  Alcotest.(check bool) "per-flow series recorded" true
    (List.length (Obs.Registry.all_series registry) > 28);
  Alcotest.(check int) "events_fired counter mirrors the scheduler"
    (fired net_obs)
    (List.assoc "sim.events_fired" (Obs.Registry.counters registry))

let test_repeat_run_identical_series () =
  (* Two instrumented runs with the same seed store identical series —
     the property behind byte-identical rla_trace CSVs. *)
  let run () =
    let registry = Obs.Registry.create () in
    ignore (Experiments.Sharing.run_with_net ~registry small_config);
    registry
  in
  let a = run () and b = run () in
  let series_of reg =
    List.map
      (fun s -> (Obs.Series.name s, Obs.Series.times s, Obs.Series.values s))
      (Obs.Registry.all_series reg)
  in
  Alcotest.(check bool) "same series, same samples" true
    (series_of a = series_of b);
  Alcotest.(check bool) "same counters" true
    (Obs.Registry.counters a = Obs.Registry.counters b)

let prop_faulted_report_deterministic =
  (* Fault injection preserves the determinism contract: for any
     (simulation seed, timeline seed) pair, a churn run replayed in the
     same process and again on a two-domain pool produces the same
     JSON report bytes — the property behind BENCH_churn.json being
     reproducible at any --jobs. *)
  QCheck.Test.make ~name:"faulted runs byte-identical across jobs" ~count:4
    QCheck.(pair (int_range 1 1000) (int_range 1 1000))
    (fun (seed, gen_seed) ->
      let config =
        {
          Experiments.Churn.sharing =
            { small_config with Experiments.Sharing.duration = 16.0;
              warmup = 4.0; seed };
          faults =
            Experiments.Churn.Generated
              {
                Experiments.Churn.gen_seed;
                outage_rate = 0.1;
                churn_rate = 0.15;
                flow_rate = 0.1;
              };
        }
      in
      let report result =
        Runner.Json.to_string (Experiments.Churn.to_json result)
      in
      let inline = report (Experiments.Churn.run config) in
      let pooled jobs =
        let jobs_list =
          List.init 2 (fun i ->
              Runner.Job.create ~label:(Printf.sprintf "churn/%d" i)
                (fun () -> Experiments.Churn.run_with_net config))
        in
        List.map
          (fun (o : _ Runner.Pool.outcome) -> report o.Runner.Pool.value)
          (Runner.Pool.run ~jobs jobs_list)
      in
      List.for_all (String.equal inline) (pooled 1)
      && List.for_all (String.equal inline) (pooled 2))

(* The registry JSON of the golden run, pinned by a digest recorded
   before the float formatter and the series arrays were optimised.  A
   change to either must leave these bytes alone. *)
let test_registry_json_golden () =
  let _, registry = Golden_run.run () in
  let json = Runner.Json.to_string (Runner.Report.registry_json registry) in
  Alcotest.(check int) "length" 9_594_437 (String.length json);
  Alcotest.(check string) "digest" "ef420ba70be647e26de6c4d3b01b2e40"
    (Digest.to_hex (Digest.string json))

(* The flow trace CSV of the same run, pinned by a digest recorded
   before the CSV renderer was rewritten. *)
let test_flow_csv_golden () =
  let _, registry = Golden_run.run () in
  let buf = Buffer.create (1 lsl 20) in
  let ppf = Format.formatter_of_buffer buf in
  Runner.Report.flow_series_csv ppf registry;
  Format.pp_print_flush ppf ();
  let csv = Buffer.contents buf in
  Alcotest.(check int) "length" 666_651 (String.length csv);
  Alcotest.(check string) "digest" "1b7aa6e05f4ca9487962a1135f59808b"
    (Digest.to_hex (Digest.string csv))

let () =
  Alcotest.run "obs"
    [
      ( "series",
        [
          Alcotest.test_case "basic" `Quick test_series_basic;
          Alcotest.test_case "limit validated" `Quick
            test_series_limit_validated;
          Alcotest.test_case "bounded memory" `Quick test_series_bounded;
          QCheck_alcotest.to_alcotest prop_series_decimation_pure;
        ] );
      ( "registry",
        [
          Alcotest.test_case "counters" `Quick test_registry_counters;
          Alcotest.test_case "gauges" `Quick test_registry_gauges;
          Alcotest.test_case "series" `Quick test_registry_series;
          Alcotest.test_case "event taps" `Quick test_registry_events;
        ] );
      ( "export",
        [
          Alcotest.test_case "flow csv shape" `Quick
            test_flow_series_csv_shape;
          Alcotest.test_case "registry json golden" `Slow
            test_registry_json_golden;
          Alcotest.test_case "flow csv golden" `Slow test_flow_csv_golden;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "probes are zero-cost" `Slow
            test_probes_do_not_perturb_run;
          Alcotest.test_case "repeat runs identical" `Slow
            test_repeat_run_identical_series;
          QCheck_alcotest.to_alcotest prop_faulted_report_deterministic;
        ] );
    ]
