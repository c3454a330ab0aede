(* lint: allow-file wall-clock -- benchmark harness: host wall time IS
   the measurement here, not simulation state *)
(* Performance bench: wall-clock, event throughput and live heap for
   the paper's main scenarios, plus checkpoint write/restore latency,
   emitted as BENCH_perf.json (see `make bench-perf`).

   Durations scale like bench/main.exe: RLA_BENCH_DURATION (seconds)
   overrides the 150 s default.  Wall-clock columns are host
   measurements and vary across machines; the events_fired column is
   deterministic for a given duration/seed. *)

let duration =
  match Sys.getenv_opt "RLA_BENCH_DURATION" with
  | None -> 150.0
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> f
      | _ ->
          Printf.eprintf
            "rla-bench-perf: RLA_BENCH_DURATION=%S is not a positive \
             duration; falling back to 150 s\n\
             %!"
            s;
          150.0)

let warmup = if 100.0 < duration then 100.0 else 0.4 *. duration
let seed = 1

let config ~gateway ~case_index =
  let case = Experiments.Tree.case_of_index case_index in
  {
    (Experiments.Sharing.default_config ~gateway ~case) with
    duration;
    warmup;
    seed;
  }

let scenarios =
  List.map
    (fun i -> (Printf.sprintf "droptail/case%d" i, Experiments.Scenario.Droptail, i))
    [ 1; 2; 3; 4; 5 ]
  @ [ ("red/case3", Experiments.Scenario.Red, 3) ]

let time f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  (v, Unix.gettimeofday () -. t0)

(* Checkpoint latency: capture the session mid-run (the largest state —
   every flow active, queue occupied), then restore it from disk.  The
   bare [run_until] skips the warm-up measurement reset, which is fine:
   only the save/load cost is measured, not fairness numbers. *)
let checkpoint_latency cfg =
  let session = Experiments.Sharing.setup cfg in
  let sched = Net.Network.scheduler session.Experiments.Sharing.net in
  Sim.Scheduler.run_until sched (cfg.Experiments.Sharing.duration /. 2.0);
  let path = Filename.temp_file "rla_bench" ".ckpt" in
  let (), save_s =
    time (fun () ->
        Ckpt.Sharing_ckpt.save ~path ~time:(Sim.Scheduler.now sched)
          ~config:cfg ~session ())
  in
  let bytes = (Unix.stat path).Unix.st_size in
  let loaded, load_s = time (fun () -> Ckpt.Sharing_ckpt.load ~path) in
  (match loaded with
  | Ok _ -> ()
  | Error e ->
      Sys.remove path;
      failwith
        ("bench checkpoint failed to restore: "
        ^ Ckpt.Sharing_ckpt.error_to_string e));
  Sys.remove path;
  (save_s, load_s, bytes)

let run_scenario (name, gateway, case_index) =
  let cfg = config ~gateway ~case_index in
  let (net, _result), wall_s =
    time (fun () -> Experiments.Sharing.run_with_net cfg)
  in
  let events = Sim.Scheduler.events_fired (Net.Network.scheduler net) in
  (* The scenario's own live state at its end.  [Gc.top_heap_words] is
     process-wide and never falls, so each scenario would inherit the
     peaks of the ones before it. *)
  Gc.full_major ();
  let live_words_at_end = (Gc.stat ()).Gc.live_words in
  ignore (Sys.opaque_identity net);
  let save_s, load_s, ckpt_bytes = checkpoint_latency cfg in
  Printf.printf
    "%-16s %8.2fs wall  %9d events  %10.0f ev/s  ckpt save %6.1f ms / load \
     %6.1f ms / %d bytes\n\
     %!"
    name wall_s events
    (float_of_int events /. wall_s)
    (save_s *. 1000.0) (load_s *. 1000.0) ckpt_bytes;
  Runner.Json.Obj
    [
      ("name", Runner.Json.String name);
      ("wall_s", Runner.Json.Float wall_s);
      ("events_fired", Runner.Json.Int events);
      ("events_per_s", Runner.Json.Float (float_of_int events /. wall_s));
      ("live_words_at_end", Runner.Json.Int live_words_at_end);
      ("ckpt_save_s", Runner.Json.Float save_s);
      ("ckpt_load_s", Runner.Json.Float load_s);
      ("ckpt_bytes", Runner.Json.Int ckpt_bytes);
    ]

let () =
  let json_path =
    if Array.length Sys.argv > 1 then Sys.argv.(1) else "BENCH_perf.json"
  in
  let rows = List.map run_scenario scenarios in
  let doc =
    Runner.Json.Obj
      [
        ("bench", Runner.Json.String "perf");
        ("duration_s", Runner.Json.Float duration);
        ("warmup_s", Runner.Json.Float warmup);
        ("seed", Runner.Json.Int seed);
        ("scenarios", Runner.Json.List rows);
      ]
  in
  let oc = open_out json_path in
  output_string oc (Runner.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s\n%!" json_path;
  (* Append-only trend history: every run adds one line (the same
     document plus a wall-clock stamp) to <name>_history.jsonl next to
     the JSON; `make bench-trend` gates regressions against the best
     line whose duration/seed match.  Lines are never rewritten, so the
     file is a permanent record of this machine's runs. *)
  let history_path = Filename.remove_extension json_path ^ "_history.jsonl" in
  let line =
    Runner.Json.Obj
      [
        ("recorded_at", Runner.Json.Float (Unix.gettimeofday ()));
        ("bench", Runner.Json.String "perf");
        ("duration_s", Runner.Json.Float duration);
        ("warmup_s", Runner.Json.Float warmup);
        ("seed", Runner.Json.Int seed);
        ("scenarios", Runner.Json.List rows);
      ]
  in
  let oc =
    open_out_gen [ Open_append; Open_creat ] 0o644 history_path
  in
  output_string oc (Runner.Json.to_string line);
  output_char oc '\n';
  close_out oc;
  Printf.printf "appended %s\n%!" history_path
