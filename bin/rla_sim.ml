(* Command-line driver: regenerate any of the paper's tables/figures.

     rla_sim fig7 --duration 3000 --seed 3
     rla_sim fig5 --steps 200000
     rla_sim all

   Experiment ids match the per-experiment index in DESIGN.md. *)

let ppf = Format.std_formatter

(* [ckpt] is [Some (every, dir)] when --checkpoint-every/--checkpoint-dir
   were given: the sharing-based figures (7/8/9) then run through the
   checkpointing driver, writing [dir]/fig_case<i>_seed<s>_t<time>.ckpt
   at every boundary.  Checkpointing is passive, so the printed tables
   are identical either way. *)
let sharing_cases ?ckpt ~gateway ~duration ~seed () =
  List.map
    (fun i ->
      match ckpt with
      | None ->
          Experiments.Sharing.run_case ~gateway ~case_index:i ~duration ~seed
            ()
      | Some (every, dir) ->
          let config =
            {
              (Experiments.Sharing.default_config ~gateway
                 ~case:(Experiments.Tree.case_of_index i))
              with
              Experiments.Sharing.duration;
              seed;
            }
          in
          let prefix =
            Printf.sprintf "%s_case%d_seed%d"
              (Experiments.Scenario.gateway_name gateway)
              i seed
          in
          Ckpt.Sharing_ckpt.run_with_checkpoints ~every ~dir ~prefix config)
    [ 1; 2; 3; 4; 5 ]

let run_fig7 ?ckpt ~duration ~seed () =
  let results =
    sharing_cases ?ckpt ~gateway:Experiments.Scenario.Droptail ~duration ~seed
      ()
  in
  Experiments.Report.print_sharing_table ppf
    ~title:"Figure 7 — RLA vs TCP, drop-tail gateways" results;
  results

let run_fig8 ?ckpt ~duration ~seed () =
  let results =
    sharing_cases ?ckpt ~gateway:Experiments.Scenario.Droptail ~duration ~seed
      ()
  in
  Experiments.Report.print_signal_table ppf results

let run_fig9 ?ckpt ~duration ~seed () =
  let results =
    sharing_cases ?ckpt ~gateway:Experiments.Scenario.Red ~duration ~seed ()
  in
  Experiments.Report.print_sharing_table ppf
    ~title:"Figure 9 — RLA vs TCP, RED gateways" results

let run_fig10 ~duration ~seed =
  let results =
    List.map
      (fun i ->
        let config = Experiments.Diff_rtt.default_config ~case_index:i in
        Experiments.Diff_rtt.run
          { config with Experiments.Diff_rtt.duration; seed })
      [ 1; 2 ]
  in
  Experiments.Report.print_diff_rtt_table ppf results

let run_sec52 ~duration ~seed =
  let config =
    Experiments.Multi_session.default_config
      ~gateway:Experiments.Scenario.Droptail
  in
  let result =
    Experiments.Multi_session.run
      { config with Experiments.Multi_session.duration; seed }
  in
  Experiments.Report.print_multi_session ppf result

let run_fig4 () =
  let pipes = Analysis.Particle.uniform_pipes ~pipe:10.0 ~n:3 in
  let field = Analysis.Particle.drift_field pipes ~x_max:10.0 ~y_max:10.0 ~step:1.0 in
  Experiments.Report.print_drift_field ppf field

let run_fig5 ~seed ~steps =
  (* Two sessions, 27 receivers, pipe 60 shared by 2 multicast + 1 TCP:
     each session's fair window is 20. *)
  let pipes = Analysis.Particle.uniform_pipes ~pipe:40.0 ~n:27 in
  let stats =
    Analysis.Particle.simulate ~rng:(Sim.Rng.create seed) pipes ~steps ()
  in
  Experiments.Report.print_particle_run ppf stats

let run_eq1 ~duration ~seed =
  let config =
    { Experiments.Validation.default_config with duration; seed }
  in
  Experiments.Report.print_validation ppf (Experiments.Validation.run config)

let run_prop ~seed ~steps =
  Experiments.Report.print_proposition_table ppf
    (Experiments.Report.proposition_rows ~seed ~steps)

let run_sec31 ~duration ~seed =
  let results =
    List.map
      (fun n_tcp ->
        Experiments.Buffer_dynamics.run
          {
            Experiments.Buffer_dynamics.default_config with
            Experiments.Buffer_dynamics.n_tcp;
            mu_pkts = 100.0 *. float_of_int n_tcp;
            duration;
            seed;
          })
      [ 1; 2; 4; 8 ]
  in
  Experiments.Report.print_buffer_dynamics ppf results

let run_scaling ~duration ~seed =
  let points =
    Experiments.Scaling.run
      { Experiments.Scaling.default_config with duration; seed }
  in
  Experiments.Scaling.print ppf points

(* Sharded scaling through the conservative parallel engine.  [shards]
   is the worker-domain count: the shard structure itself is fixed by
   the topology partition (fanout+1 parts), so the printed report is
   byte-identical for every --shards value — that invariance is what
   `make par-smoke` checks.  Checkpoint flags are rejected up front
   with the typed Par.Scenario error. *)
let run_scale ~fanout ~depth ~shards ~duration ~seed ~ckpt =
  let config =
    {
      Experiments.Scaling.default_sharded_config with
      Experiments.Scaling.fanout;
      depth;
      workers = shards;
      duration;
      warmup = duration /. 4.0;
      seed;
    }
  in
  match Experiments.Scaling.run_sharded ?checkpoint:ckpt config with
  | Ok r -> Experiments.Scaling.print_sharded ppf r
  | Error e ->
      Printf.eprintf "rla_sim: %s\n" (Par.Scenario.error_to_string e);
      exit 2

let run_shortflows ~duration ~seed =
  let results =
    List.map
      (fun bg ->
        Experiments.Short_flows.run
          {
            (Experiments.Short_flows.default_config bg) with
            Experiments.Short_flows.duration;
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

let run_ecn ~duration ~seed =
  List.iter
    (fun case_index ->
      Experiments.Ecn.print ppf
        (Experiments.Ecn.run ~case_index ~duration ~seed ()))
    [ 1; 3 ]

let run_churn ~duration ~seed =
  (* The default fault script over the paper's case-3 tree: a leaf-link
     outage, a leave + rejoin, and a competing short-lived TCP, with
     the essential-fairness ratio reported per fault epoch. *)
  let warmup = Float.min 100.0 (duration /. 3.0) in
  let config =
    Experiments.Churn.case_config ~gateway:Experiments.Scenario.Droptail
      ~case_index:3 ~duration ~warmup ~seed ()
  in
  Experiments.Churn.print ppf (Experiments.Churn.run config)

let run_baseline ~duration ~seed =
  let results = Experiments.Baseline_fairness.run_matrix ~duration ~seed () in
  Experiments.Report.print_baseline_matrix ppf results

(* Adversary mixes on the fig-6 tree (every mix) plus a small k-ary
   scale tree (honest + non-backoff), all deterministic; --csv writes
   the fixed-precision trace that `make hostile-smoke` byte-compares
   across runs and --jobs values. *)
let run_hostile ~duration ~seed ~csv =
  let warmup = Float.min 100.0 (duration /. 3.0) in
  let fig6 =
    List.map
      (fun mix ->
        Experiments.Hostile.run
          {
            (Experiments.Hostile.default_config ~mix) with
            Experiments.Hostile.duration;
            warmup;
            seed;
          })
      Experiments.Hostile.all_mixes
  in
  let kary =
    List.map
      (fun mix ->
        Experiments.Hostile.run
          {
            (Experiments.Hostile.default_config ~mix) with
            Experiments.Hostile.topology =
              Experiments.Hostile.Kary { fanout = 3; depth = 2 };
            duration;
            warmup;
            seed;
          })
      [ Experiments.Hostile.Honest; Experiments.Hostile.Nonbackoff ]
  in
  let results = fig6 @ kary in
  Experiments.Hostile.print ppf results;
  match csv with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc (Experiments.Hostile.csv_header ^ "\n");
      List.iter
        (fun r -> output_string oc (Experiments.Hostile.to_csv_row r ^ "\n"))
        results;
      close_out oc;
      Format.fprintf ppf "hostile trace written to %s@." path

(* Mean-field tier: integrate the ODE system at one regime-map point
   and emit the trajectory (CSV to --csv, summary to stdout). *)
let run_meanfield ~mf_n ~mf_w_q ~mf_max_p ~csv =
  let point = { Meanfield.Regime.w_q = mf_w_q; max_p = mf_max_p; n = mf_n } in
  let params = Meanfield.Regime.params_for point in
  let r = Meanfield.Solver.run params in
  Format.fprintf ppf
    "Mean-field trajectory: n=%d w_q=%g max_p=%g@.verdict %s  queue %.2f  \
     avg-queue %.2f  drop %.5f  amplitude %.3f%s@.rla-window %.2f  \
     rla-rate %.1f  fairness-ratio %.3f  (%d steps to t=%.1f)@."
    mf_n mf_w_q mf_max_p
    (Meanfield.Solver.verdict_to_string r.Meanfield.Solver.verdict)
    r.Meanfield.Solver.queue_mean r.Meanfield.Solver.avg_queue_mean
    r.Meanfield.Solver.drop_mean r.Meanfield.Solver.amplitude
    (match r.Meanfield.Solver.period with
    | Some p -> Printf.sprintf "  period %.2fs" p
    | None -> "")
    r.Meanfield.Solver.rla_window r.Meanfield.Solver.rla_rate
    r.Meanfield.Solver.fairness_ratio r.Meanfield.Solver.steps
    r.Meanfield.Solver.t_end;
  match csv with
  | None -> ()
  | Some path ->
      let oc = open_out path in
      output_string oc
        (Meanfield.Trajectory.to_csv_string r.Meanfield.Solver.trajectory);
      close_out oc;
      Format.fprintf ppf "trajectory written to %s@." path

(* Unlike the other experiments, the validation's default horizon comes
   from the experiment itself (640 s): the fairness ratio needs
   hundreds of RLA loss events to time-average, so the generic 300 s
   CLI default would be misleading here.  --duration still overrides
   for quick smoke runs (pair it with a looser --mf-tol). *)
let run_mfvalidate ?duration ?tolerance ~seed () =
  let base = Experiments.Meanfield_validate.default_config in
  let duration =
    Option.value duration ~default:base.Experiments.Meanfield_validate.duration
  in
  let config =
    {
      base with
      Experiments.Meanfield_validate.duration;
      warmup =
        Float.min base.Experiments.Meanfield_validate.warmup (duration /. 4.0);
      seed;
      tolerance =
        Option.value tolerance
          ~default:base.Experiments.Meanfield_validate.tolerance;
    }
  in
  let result = Experiments.Meanfield_validate.run ~config () in
  Experiments.Meanfield_validate.print ppf result;
  if not result.Experiments.Meanfield_validate.pass then exit 1

let run_ablate ~duration ~seed =
  let run ~title variants =
    Experiments.Report.print_ablation ppf ~title
      (Experiments.Ablation.run ~variants ~duration ~seed ())
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

let experiments =
  [
    ("fig4", `Fig4);
    ("fig5", `Fig5);
    ("fig7", `Fig7);
    ("fig8", `Fig8);
    ("fig9", `Fig9);
    ("fig10", `Fig10);
    ("sec52", `Sec52);
    ("sec31", `Sec31);
    ("scaling", `Scaling);
    ("scale", `Scale);
    ("shortflows", `Shortflows);
    ("ecn", `Ecn);
    ("eq1", `Eq1);
    ("prop", `Prop);
    ("baseline", `Baseline);
    ("hostile", `Hostile);
    ("churn", `Churn);
    ("ablate", `Ablate);
    ("meanfield", `Meanfield);
    ("mfvalidate", `Mfvalidate);
    ("all", `All);
  ]

let dispatch which ~duration ~mf_tol ~seed ~steps ~ckpt ~shards ~fanout ~depth
    ~mf_n ~mf_w_q ~mf_max_p ~csv =
  let mf_duration = duration in
  let duration = Option.value duration ~default:300.0 in
  match which with
  | `Fig4 -> run_fig4 ()
  | `Fig5 -> run_fig5 ~seed ~steps
  | `Fig7 -> ignore (run_fig7 ?ckpt ~duration ~seed ())
  | `Fig8 -> run_fig8 ?ckpt ~duration ~seed ()
  | `Fig9 -> run_fig9 ?ckpt ~duration ~seed ()
  | `Fig10 -> run_fig10 ~duration ~seed
  | `Sec52 -> run_sec52 ~duration ~seed
  | `Sec31 -> run_sec31 ~duration ~seed
  | `Scaling -> run_scaling ~duration ~seed
  | `Scale -> run_scale ~fanout ~depth ~shards ~duration ~seed ~ckpt
  | `Shortflows -> run_shortflows ~duration ~seed
  | `Ecn -> run_ecn ~duration ~seed
  | `Eq1 -> run_eq1 ~duration ~seed
  | `Prop -> run_prop ~seed ~steps
  | `Baseline -> run_baseline ~duration ~seed
  | `Hostile -> run_hostile ~duration ~seed ~csv
  | `Churn -> run_churn ~duration ~seed
  | `Ablate -> run_ablate ~duration ~seed
  | `Meanfield -> run_meanfield ~mf_n ~mf_w_q ~mf_max_p ~csv
  | `Mfvalidate ->
      run_mfvalidate ?duration:mf_duration ?tolerance:mf_tol ~seed ()
  | `All ->
      run_fig4 ();
      run_fig5 ~seed ~steps;
      let dt = run_fig7 ?ckpt ~duration ~seed () in
      Experiments.Report.print_signal_table ppf dt;
      run_fig9 ?ckpt ~duration ~seed ();
      run_fig10 ~duration ~seed;
      run_sec52 ~duration ~seed;
      run_sec31 ~duration ~seed;
      run_scaling ~duration ~seed;
      run_shortflows ~duration ~seed;
      run_ecn ~duration ~seed;
      run_eq1 ~duration ~seed;
      run_prop ~seed ~steps;
      run_baseline ~duration ~seed

open Cmdliner

let which_arg =
  let doc =
    "Experiment to run: "
    ^ String.concat ", " (List.map fst experiments)
    ^ ". Optional when --restore is given."
  in
  Arg.(
    value & pos 0 (some (enum experiments)) None & info [] ~docv:"EXPERIMENT" ~doc)

let duration_arg =
  let doc =
    "Simulated seconds per run (default 300; the paper uses 3000; \
     mfvalidate defaults to its own 640 s horizon)."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "duration"; "d" ] ~docv:"SECONDS" ~doc)

let mf_tol_arg =
  let doc =
    "Relative-error tolerance for mfvalidate (default 0.15); loosen it \
     for short smoke runs."
  in
  Arg.(value & opt (some float) None & info [ "mf-tol" ] ~docv:"FRAC" ~doc)

let seed_arg =
  let doc = "Random seed; every run is reproducible from it." in
  Arg.(value & opt int 1 & info [ "seed"; "s" ] ~docv:"SEED" ~doc)

let steps_arg =
  let doc = "Steps for the Monte-Carlo models (fig5, prop)." in
  Arg.(value & opt int 200_000 & info [ "steps" ] ~docv:"STEPS" ~doc)

let shards_arg =
  let doc =
    "Worker domains for the sharded $(b,scale) experiment.  The shard \
     structure is fixed by the topology, so results are byte-identical \
     for any value; only wall-clock changes."
  in
  Arg.(value & opt int 1 & info [ "shards" ] ~docv:"N" ~doc)

let fanout_arg =
  let doc =
    "Tree fanout for $(b,scale) (receivers = fanout^depth; the default \
     22 x 3 gives 10648)."
  in
  Arg.(value & opt int 22 & info [ "fanout" ] ~docv:"K" ~doc)

let depth_arg =
  let doc = "Tree depth for $(b,scale) (>= 2)." in
  Arg.(value & opt int 3 & info [ "depth" ] ~docv:"D" ~doc)

let mf_n_arg =
  let doc = "System size n for the $(b,meanfield) experiment." in
  Arg.(value & opt int 8 & info [ "mf-n" ] ~docv:"N" ~doc)

let mf_w_q_arg =
  let doc = "RED EWMA weight for $(b,meanfield)." in
  Arg.(value & opt float 0.002 & info [ "mf-w-q" ] ~docv:"W" ~doc)

let mf_max_p_arg =
  let doc = "RED max_p for $(b,meanfield)." in
  Arg.(value & opt float 0.1 & info [ "mf-max-p" ] ~docv:"P" ~doc)

let csv_arg =
  let doc =
    "Write the $(b,meanfield) trajectory (or $(b,hostile) trace) CSV to \
     $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc)

let ckpt_every_arg =
  let doc =
    "Write a checkpoint every $(docv) simulated seconds (sharing-based \
     experiments: fig7, fig8, fig9).  Requires --checkpoint-dir."
  in
  Arg.(
    value
    & opt (some float) None
    & info [ "checkpoint-every" ] ~docv:"SECONDS" ~doc)

let ckpt_dir_arg =
  let doc = "Directory for checkpoint files (created if missing)." in
  Arg.(
    value & opt (some string) None & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)

let restore_arg =
  let doc =
    "Resume a checkpointed sharing run from $(docv) and print its final \
     fairness table.  With --checkpoint-every/--checkpoint-dir, keeps \
     checkpointing on the way."
  in
  Arg.(value & opt (some string) None & info [ "restore" ] ~docv:"FILE" ~doc)

let run_restore ~path ~ckpt =
  match Ckpt.Sharing_ckpt.load ~path with
  | Error e ->
      Printf.eprintf "rla_sim: cannot restore %s: %s\n" path
        (Ckpt.Sharing_ckpt.error_to_string e);
      1
  | Ok loaded ->
      let config = loaded.Ckpt.Sharing_ckpt.config in
      Format.fprintf ppf
        "Restored %s at t=%g (case %s, %s gateways, seed %d); running to \
         t=%g@."
        path loaded.Ckpt.Sharing_ckpt.time
        (Experiments.Tree.case_name config.Experiments.Sharing.case)
        (Experiments.Scenario.gateway_name config.Experiments.Sharing.gateway)
        config.Experiments.Sharing.seed config.Experiments.Sharing.duration;
      let result =
        match ckpt with
        | None -> Ckpt.Sharing_ckpt.resume_run loaded
        | Some (every, dir) -> Ckpt.Sharing_ckpt.resume_run ~every ~dir loaded
      in
      Experiments.Report.print_sharing_table ppf ~title:"Restored run"
        [ result ];
      0

let main which duration mf_tol seed steps shards fanout depth mf_n mf_w_q
    mf_max_p csv ckpt_every ckpt_dir restore =
  let ckpt =
    match (ckpt_every, ckpt_dir) with
    | Some every, Some dir ->
        if not (every > 0.0) then begin
          Printf.eprintf "rla_sim: --checkpoint-every must be positive\n";
          exit 2
        end;
        Some (every, dir)
    | Some _, None | None, Some _ ->
        Printf.eprintf
          "rla_sim: --checkpoint-every and --checkpoint-dir go together\n";
        exit 2
    | None, None -> None
  in
  match (restore, which) with
  | Some path, None -> run_restore ~path ~ckpt
  | Some _, Some _ ->
      Printf.eprintf "rla_sim: --restore takes no EXPERIMENT argument\n";
      2
  | None, None ->
      Printf.eprintf
        "rla_sim: an EXPERIMENT argument is required (or use --restore)\n";
      2
  | None, Some which ->
      dispatch which ~duration ~mf_tol ~seed ~steps ~ckpt ~shards ~fanout
        ~depth ~mf_n ~mf_w_q ~mf_max_p ~csv;
      0

let cmd =
  let doc =
    "Reproduce the tables and figures of Wang & Schwartz, 'Achieving \
     Bounded Fairness for Multicast and TCP Traffic in the Internet' \
     (SIGCOMM 1998)."
  in
  let term =
    Term.(
      const main $ which_arg $ duration_arg $ mf_tol_arg $ seed_arg
      $ steps_arg $ shards_arg $ fanout_arg $ depth_arg $ mf_n_arg
      $ mf_w_q_arg $ mf_max_p_arg $ csv_arg $ ckpt_every_arg $ ckpt_dir_arg
      $ restore_arg)
  in
  Cmd.v (Cmd.info "rla_sim" ~doc) term

let () = exit (Cmd.eval' cmd)
