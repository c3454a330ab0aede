(* lint: allow-file wall-clock -- benchmark harness: host wall time IS
   the measurement here, not simulation state *)
(* Benchmark harness: regenerates every table and figure of the paper
   (section 5 and the analytical figures).  Per-operation timings of
   the simulator's hot paths live in perfbench/micro.ml.

   Durations are scaled down from the paper's 3000 s so the whole
   harness finishes in minutes; set RLA_BENCH_DURATION (seconds) to
   lengthen the runs — the shapes are stable from ~150 s up.

     dune exec bench/main.exe *)

let ppf = Format.std_formatter

(* Any positive duration is accepted; only unparsable or non-positive
   values fall back to the 150 s default, with a warning on stderr. *)
let duration =
  match Sys.getenv_opt "RLA_BENCH_DURATION" with
  | None -> 150.0
  | Some s -> (
      match float_of_string_opt s with
      | Some f when f > 0.0 -> f
      | _ ->
          Printf.eprintf
            "rla-bench: RLA_BENCH_DURATION=%S is not a positive duration; \
             falling back to 150 s\n\
             %!"
            s;
          150.0)

(* Experiments discard a warm-up prefix (usually 100 s); for short
   custom durations shrink it so runs stay valid. *)
let warmup_for default_warmup =
  if default_warmup < duration then default_warmup else 0.4 *. duration

let jobs =
  match Sys.getenv_opt "RLA_BENCH_JOBS" with
  | Some s -> (
      match int_of_string_opt s with
      | Some j when j >= 1 -> j
      | _ -> Runner.Pool.default_jobs ())
  | None -> Runner.Pool.default_jobs ()

let seed = 1

let section title =
  Format.fprintf ppf "@.========================================================@.";
  Format.fprintf ppf "== %s@." title;
  Format.fprintf ppf "========================================================@."

(* ------------------------------------------------------------------ *)
(* Paper reproduction                                                 *)
(* ------------------------------------------------------------------ *)

let fig4 () =
  section "FIG4: drift diagram of two competing sessions (analytic)";
  let pipes = Analysis.Particle.uniform_pipes ~pipe:10.0 ~n:3 in
  Experiments.Report.print_drift_field ppf
    (Analysis.Particle.drift_field pipes ~x_max:10.0 ~y_max:10.0 ~step:1.0)

let fig5 () =
  section "FIG5: density of (cwnd1, cwnd2), Markov model";
  let pipes = Analysis.Particle.uniform_pipes ~pipe:40.0 ~n:27 in
  Experiments.Report.print_particle_run ppf
    (Analysis.Particle.simulate ~rng:(Sim.Rng.create seed) pipes ~steps:100_000 ())

let sharing_sweep gateway =
  Experiments.Sharing.sweep ~gateway ~case_indices:[ 1; 2; 3; 4; 5 ] ~duration
    ~warmup:(warmup_for 100.0) ~seeds:[ seed ] ~jobs ()

let fig7_and_8 () =
  section
    (Printf.sprintf "FIG7: RLA vs TCP, drop-tail gateways (%.0f s runs, %d jobs)"
       duration jobs);
  let t0 = Unix.gettimeofday () in
  let outcomes = sharing_sweep Experiments.Scenario.Droptail in
  let wall_s = Unix.gettimeofday () -. t0 in
  let results = Runner.Pool.values outcomes in
  Experiments.Report.print_sharing_table ppf
    ~title:"Figure 7 — drop-tail gateways" results;
  Runner.Report.pp_metrics_table ppf outcomes;
  let json =
    Runner.Report.sweep_json ~name:"fig7_droptail_sweep" ~jobs ~wall_s
      (fun o ->
        let r = o.Runner.Pool.value in
        [
          ("ratio", Runner.Json.Float r.Experiments.Sharing.ratio);
          ( "rla_send_rate",
            Runner.Json.Float
              r.Experiments.Sharing.rla.Rla.Sender.send_rate );
          ( "wtcp_send_rate",
            Runner.Json.Float
              r.Experiments.Sharing.wtcp.Tcp.Sender.send_rate );
          ( "essentially_fair",
            Runner.Json.Bool r.Experiments.Sharing.essentially_fair );
        ])
      outcomes
  in
  Runner.Report.write_file ~path:"BENCH_sweep.json" json;
  Format.fprintf ppf "wrote BENCH_sweep.json (%d runs, %.1f s wall)@."
    (List.length outcomes) wall_s;
  section "FIG8: congestion-signal statistics per branch";
  Experiments.Report.print_signal_table ppf results

let fig9 () =
  section
    (Printf.sprintf "FIG9: RLA vs TCP, RED gateways (%.0f s runs, %d jobs)"
       duration jobs);
  Experiments.Report.print_sharing_table ppf ~title:"Figure 9 — RED gateways"
    (Runner.Pool.values (sharing_sweep Experiments.Scenario.Red))

let fig10 () =
  section "FIG10: generalized RLA, heterogeneous RTTs";
  Experiments.Report.print_diff_rtt_table ppf
    (Runner.Pool.values
       (Experiments.Diff_rtt.sweep ~case_indices:[ 1; 2 ] ~duration
          ~warmup:(warmup_for 100.0) ~seed ~jobs ()))

let sec52 () =
  section "SEC5.2: two overlapping multicast sessions";
  match
    Runner.Pool.values
      (Experiments.Multi_session.run_seeds
         ~gateway:Experiments.Scenario.Droptail ~seeds:[ seed ] ~duration
         ~warmup:(warmup_for 100.0) ~jobs ())
  with
  | [ result ] -> Experiments.Report.print_multi_session ppf result
  | _ -> assert false

let sec31 () =
  section "SEC3.1: drop-tail buffer periods under TCP";
  let results =
    List.map
      (fun n_tcp ->
        let base = Experiments.Buffer_dynamics.default_config in
        Experiments.Buffer_dynamics.run
          {
            base with
            Experiments.Buffer_dynamics.n_tcp;
            mu_pkts = 100.0 *. float_of_int n_tcp;
            duration;
            warmup = warmup_for base.Experiments.Buffer_dynamics.warmup;
            seed;
          })
      [ 1; 2; 4; 8 ]
  in
  Experiments.Report.print_buffer_dynamics ppf results

let scaling () =
  section "SCALING: RLA throughput vs receiver count";
  let base = Experiments.Scaling.default_config in
  Experiments.Scaling.print ppf
    (Experiments.Scaling.run
       {
         base with
         duration;
         warmup = warmup_for base.Experiments.Scaling.warmup;
         seed;
       })

let shortflows () =
  section "SHORTFLOWS: short TCP flows vs long-lived backgrounds";
  let results =
    List.map
      (fun bg ->
        let base = Experiments.Short_flows.default_config bg in
        Experiments.Short_flows.run
          {
            base with
            Experiments.Short_flows.duration;
            warmup = warmup_for base.Experiments.Short_flows.warmup;
            seed;
          })
      [
        Experiments.Short_flows.Bg_none;
        Experiments.Short_flows.Bg_tcp;
        Experiments.Short_flows.Bg_rla;
        Experiments.Short_flows.Bg_cbr 220.0;
      ]
  in
  Experiments.Short_flows.print ppf results

let ecn () =
  section "ECN: RED marking instead of dropping (extension)";
  List.iter
    (fun case_index ->
      Experiments.Ecn.print ppf
        (Experiments.Ecn.run ~case_index ~duration ~seed ()))
    [ 1; 3 ]

let eq1 () =
  section "EQ1: analytical TCP window vs simulation";
  let base = Experiments.Validation.default_config in
  let config =
    {
      base with
      duration;
      warmup = warmup_for base.Experiments.Validation.warmup;
      seed;
    }
  in
  Experiments.Report.print_validation ppf (Experiments.Validation.run config)

let prop () =
  section "PROP: RLA window bounds (drift model + Monte-Carlo)";
  let rng = Sim.Rng.create seed in
  let rows =
    List.map
      (fun (n, ps) ->
        let w_model = Analysis.Rla_model.pa_window_independent ~ps in
        let w_mc = Analysis.Rla_model.simulate_window ~rng ~ps ~steps:200_000 in
        let p_max = Array.fold_left Stdlib.max 0.0 ps in
        let lo, hi = Analysis.Rla_model.proposition_bounds ~n ~p_max in
        (n, ps, w_model, w_mc, lo, hi))
      [
        (2, [| 0.01; 0.01 |]);
        (2, [| 0.02; 0.002 |]);
        (4, Array.make 4 0.02);
        (8, Array.make 8 0.01);
        (27, Array.make 27 0.01);
        (27, Array.append [| 0.03 |] (Array.make 26 0.003));
      ]
  in
  Experiments.Report.print_proposition_table ppf rows

let baseline () =
  section "BASELINE: rate-based schemes vs TCP (motivation, section 1)";
  Experiments.Report.print_baseline_matrix ppf
    (Experiments.Baseline_fairness.run_matrix ~duration ~seed ())

let ablations () =
  section "ABLATION: RLA design choices (case 3, drop-tail)";
  let ablation_duration = Stdlib.min duration 150.0 in
  let run ~title variants =
    Experiments.Report.print_ablation ppf ~title
      (Experiments.Ablation.run ~variants ~duration:ablation_duration ~seed ())
  in
  run ~title:"congestion-signal grouping window"
    (Experiments.Ablation.grouping_variants ());
  run ~title:"forced-cut horizon" (Experiments.Ablation.forced_cut_variants ());
  run ~title:"eta (troubled-receiver threshold)"
    (Experiments.Ablation.eta_variants ());
  run ~title:"phase-effect randomization"
    (Experiments.Ablation.phase_variants ());
  run ~title:"generalized pthresh exponent"
    (Experiments.Ablation.rtt_exponent_variants ());
  run ~title:"retransmission expiry"
    (Experiments.Ablation.rexmit_timeout_variants ());
  run ~title:"receiver ack jitter"
    (Experiments.Ablation.ack_jitter_variants ())

let () =
  let t0 = Sys.time () in
  fig4 ();
  fig5 ();
  fig7_and_8 ();
  fig9 ();
  fig10 ();
  sec52 ();
  sec31 ();
  scaling ();
  shortflows ();
  ecn ();
  eq1 ();
  prop ();
  baseline ();
  ablations ();
  Format.fprintf ppf "@.total cpu time: %.1f s@." (Sys.time () -. t0)
