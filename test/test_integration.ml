(* Integration tests: end-to-end properties the paper claims, checked
   on scaled-down runs.  These are the slowest tests in the suite. *)

(* A reusable scaled fig-7-style run. *)
let sharing ~gateway ~case ~duration ~seed =
  Experiments.Sharing.run
    {
      (Experiments.Sharing.default_config ~gateway ~case) with
      Experiments.Sharing.duration;
      warmup = duration /. 4.0;
      seed;
    }

let test_case3_droptail_essentially_fair () =
  let r =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:150.0 ~seed:1
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within theorem bounds" r.Experiments.Sharing.ratio)
    true r.Experiments.Sharing.essentially_fair;
  (* The paper's case 3 lands close to parity; allow a broad band. *)
  Alcotest.(check bool) "close to parity" true
    (r.Experiments.Sharing.ratio > 0.5 && r.Experiments.Sharing.ratio < 3.0)

let test_case3_red_essentially_fair () =
  let r =
    sharing ~gateway:Experiments.Scenario.Red ~case:Experiments.Tree.L4_all
      ~duration:150.0 ~seed:1
  in
  Alcotest.(check bool) "fair under RED" true r.Experiments.Sharing.essentially_fair

let test_correlation_lemma_in_simulation () =
  (* Cases 1 (common losses) vs 3 (independent): the Lemma predicts a
     larger RLA window under correlated losses. *)
  let case1 =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L1_bottleneck ~duration:150.0 ~seed:1
  in
  let case3 =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:150.0 ~seed:1
  in
  let w1 = case1.Experiments.Sharing.rla.Rla.Sender.cwnd_avg in
  let w3 = case3.Experiments.Sharing.rla.Rla.Sender.cwnd_avg in
  Alcotest.(check bool)
    (Printf.sprintf "cwnd case1 %.1f > case3 %.1f" w1 w3)
    true (w1 > w3)

let test_case5_multicast_gets_more () =
  (* One congested subtree slowing 9 of 27 receivers: the RLA should
     take noticeably more than the TCPs on the congested branch (the
     paper reports 224.6 vs 74.5 pkt/s). *)
  let r =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L2_single ~duration:150.0 ~seed:1
  in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f > 1.2" r.Experiments.Sharing.ratio)
    true
    (r.Experiments.Sharing.ratio > 1.2);
  Alcotest.(check bool) "still bounded" true r.Experiments.Sharing.essentially_fair

let test_signal_counts_similar_uniform_case () =
  (* Figure 8, case 3: RLA and TCP senders see a similar number of
     congestion signals per branch. *)
  let r =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:150.0 ~seed:1
  in
  let rla_avg =
    r.Experiments.Sharing.rla_signals_congested.Experiments.Sharing.average
  in
  let tcp_avg =
    r.Experiments.Sharing.tcp_cuts_congested.Experiments.Sharing.average
  in
  Alcotest.(check bool)
    (Printf.sprintf "rla %.0f vs tcp %.0f within 2.5x" rla_avg tcp_avg)
    true
    (rla_avg > 0.0 && tcp_avg > 0.0
    && rla_avg /. tcp_avg < 2.5
    && tcp_avg /. rla_avg < 2.5)

let test_rla_window_cut_fraction () =
  (* With 27 equally troubled receivers, cuts ~ signals/27 (plus the
     occasional timeout). *)
  let r =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:150.0 ~seed:1
  in
  let signals = r.Experiments.Sharing.rla.Rla.Sender.congestion_signals in
  let cuts =
    r.Experiments.Sharing.rla.Rla.Sender.window_cuts
    - r.Experiments.Sharing.rla.Rla.Sender.timeouts
  in
  let expected = float_of_int signals /. 27.0 in
  Alcotest.(check bool)
    (Printf.sprintf "cuts %d vs signals/27 = %.1f" cuts expected)
    true
    (float_of_int cuts > 0.4 *. expected && float_of_int cuts < 2.5 *. expected)

let test_two_sessions_split_equally () =
  let config =
    {
      (Experiments.Multi_session.default_config
         ~gateway:Experiments.Scenario.Droptail)
      with
      Experiments.Multi_session.duration = 150.0;
      warmup = 40.0;
    }
  in
  let r = Experiments.Multi_session.run config in
  Alcotest.(check bool)
    (Printf.sprintf "throughput ratio %.2f in [0.6, 1.67]"
       r.Experiments.Multi_session.throughput_ratio)
    true
    (r.Experiments.Multi_session.throughput_ratio > 0.6
    && r.Experiments.Multi_session.throughput_ratio < 1.67)

let test_sharing_deterministic () =
  let r1 =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:60.0 ~seed:9
  in
  let r2 =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:60.0 ~seed:9
  in
  Alcotest.(check (float 1e-9)) "same throughput"
    r1.Experiments.Sharing.rla.Rla.Sender.throughput
    r2.Experiments.Sharing.rla.Rla.Sender.throughput;
  Alcotest.(check int) "same signals"
    r1.Experiments.Sharing.rla.Rla.Sender.congestion_signals
    r2.Experiments.Sharing.rla.Rla.Sender.congestion_signals

let test_seed_changes_run () =
  let r1 =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:60.0 ~seed:9
  in
  let r2 =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all ~duration:60.0 ~seed:10
  in
  Alcotest.(check bool) "different seeds differ" true
    (r1.Experiments.Sharing.rla.Rla.Sender.congestion_signals
    <> r2.Experiments.Sharing.rla.Rla.Sender.congestion_signals)

let test_invariants_do_not_perturb_run () =
  (* The runtime invariant checks are passive: an instrumented run must
     be byte-identical to an uninstrumented one, and a healthy run must
     trip zero of them. *)
  let render () =
    let registry = Obs.Registry.create () in
    let r =
      Experiments.Sharing.run ~registry
        {
          (Experiments.Sharing.default_config
             ~gateway:Experiments.Scenario.Droptail ~case:Experiments.Tree.L4_all)
          with
          Experiments.Sharing.duration = 40.0;
          warmup = 10.0;
          seed = 7;
        }
    in
    ( Runner.Json.to_string (Runner.Report.registry_json registry),
      r.Experiments.Sharing.rla.Rla.Sender.congestion_signals )
  in
  let was_enabled = !Sim.Invariant.enabled in
  Fun.protect
    ~finally:(fun () -> Sim.Invariant.enabled := was_enabled)
    (fun () ->
      Sim.Invariant.enabled := false;
      let plain_json, plain_signals = render () in
      Sim.Invariant.enabled := true;
      Sim.Invariant.For_testing.reset_counters ();
      let checked_json, checked_signals = render () in
      Alcotest.(check bool) "invariant checks exercised" true
        (Sim.Invariant.For_testing.checks_run () > 0);
      Alcotest.(check int) "no invariant failures" 0
        (Sim.Invariant.For_testing.failures_seen ());
      Alcotest.(check int) "same congestion signals" plain_signals
        checked_signals;
      Alcotest.(check string) "byte-identical exported metrics" plain_json
        checked_json)

let test_checkpoint_restore_byte_identical () =
  (* The ISSUE's core acceptance: a run restored from a checkpoint at
     T/2 and driven to T must be byte-identical — exported registry
     JSON, event journal, fairness numbers — to the uninterrupted run.
     Also checks that writing checkpoints is passive (the checkpointed
     run itself equals the plain run). *)
  let config =
    {
      (Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
         ~case:Experiments.Tree.L4_all)
      with
      Experiments.Sharing.duration = 40.0;
      warmup = 10.0;
      seed = 7;
    }
  in
  let render registry =
    Runner.Json.to_string (Runner.Report.registry_json registry)
  in
  (* Uninterrupted instrumented reference. *)
  let reg0 = Obs.Registry.create () in
  let j0 = Ckpt.Journal.create () in
  Ckpt.Journal.attach j0 reg0;
  let r0 = Experiments.Sharing.run ~registry:reg0 config in
  let json0 = render reg0 in
  (* Same run, writing a checkpoint every 10 s. *)
  let dir = Filename.temp_file "rla_ckpt_integ" "" in
  Sys.remove dir;
  Fun.protect
    ~finally:(fun () ->
      if Sys.file_exists dir then begin
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
        Sys.rmdir dir
      end)
    (fun () ->
      let reg1 = Obs.Registry.create () in
      let j1 = Ckpt.Journal.create () in
      let r1 =
        Ckpt.Sharing_ckpt.run_with_checkpoints ~registry:reg1 ~journal:j1
          ~every:10.0 ~dir ~prefix:"integ" config
      in
      Alcotest.(check string) "checkpointing is passive (registry JSON)" json0
        (render reg1);
      Alcotest.(check bool) "checkpointing is passive (journal)" true
        (Ckpt.Journal.diff j0 j1 = None);
      Alcotest.(check (float 0.0)) "checkpointing is passive (ratio)"
        r0.Experiments.Sharing.ratio r1.Experiments.Sharing.ratio;
      (* Restore the T/2 checkpoint and run to T. *)
      Alcotest.(check bool) "t=20 checkpoint exists" true
        (Array.mem "integ_t000020.000.ckpt" (Sys.readdir dir));
      let path = Filename.concat dir "integ_t000020.000.ckpt" in
      match Ckpt.Sharing_ckpt.load ~path with
      | Error e -> Alcotest.fail (Ckpt.Sharing_ckpt.error_to_string e)
      | Ok loaded ->
          let r2 = Ckpt.Sharing_ckpt.resume_run loaded in
          let reg2 =
            match loaded.Ckpt.Sharing_ckpt.registry with
            | Some reg -> reg
            | None -> Alcotest.fail "restored run lost its registry"
          in
          Alcotest.(check string) "restored run: byte-identical registry JSON"
            json0 (render reg2);
          (match loaded.Ckpt.Sharing_ckpt.journal with
          | None -> Alcotest.fail "restored run lost its journal"
          | Some j2 -> (
              match Ckpt.Journal.diff j0 j2 with
              | None -> ()
              | Some d ->
                  Alcotest.failf
                    "restored journal diverges at entry %d (%s vs %s)"
                    d.Ckpt.Journal.index
                    (match d.Ckpt.Journal.a with
                    | Some e -> Ckpt.Journal.entry_to_string e
                    | None -> "<end>")
                    (match d.Ckpt.Journal.b with
                    | Some e -> Ckpt.Journal.entry_to_string e
                    | None -> "<end>")));
          Alcotest.(check int) "restored run: same congestion signals"
            r0.Experiments.Sharing.rla.Rla.Sender.congestion_signals
            r2.Experiments.Sharing.rla.Rla.Sender.congestion_signals;
          Alcotest.(check (float 0.0)) "restored run: same RLA send rate"
            r0.Experiments.Sharing.rla.Rla.Sender.send_rate
            r2.Experiments.Sharing.rla.Rla.Sender.send_rate;
          Alcotest.(check (float 0.0)) "restored run: same fairness ratio"
            r0.Experiments.Sharing.ratio r2.Experiments.Sharing.ratio)

let test_generalized_rla_helps_diff_rtt () =
  (* Without RTT scaling the nearby receivers' signals cut the window
     as often as the distant ones'; the generalized variant should give
     the session at least as much throughput. *)
  let run params =
    let config = Experiments.Diff_rtt.default_config ~case_index:2 in
    (Experiments.Diff_rtt.run
       {
         config with
         Experiments.Diff_rtt.duration = 150.0;
         warmup = 40.0;
         rla_params = params;
       })
      .Experiments.Diff_rtt.rla
      .Rla.Sender.throughput
  in
  let restricted = run Rla.Params.default in
  let generalized = run (Rla.Params.generalized Rla.Params.default) in
  Alcotest.(check bool)
    (Printf.sprintf "generalized %.1f >= 0.8 x restricted %.1f" generalized
       restricted)
    true
    (generalized >= 0.8 *. restricted)

let test_diff_rtt_reasonable_share () =
  let config = Experiments.Diff_rtt.default_config ~case_index:2 in
  let r =
    Experiments.Diff_rtt.run
      { config with Experiments.Diff_rtt.duration = 150.0; warmup = 40.0 }
  in
  (* Figure 10 shows the RLA above the worst TCP but far below n x. *)
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f in (0.25, 36)" r.Experiments.Diff_rtt.ratio)
    true
    (r.Experiments.Diff_rtt.ratio > 0.25
    && r.Experiments.Diff_rtt.ratio < 36.0)

let test_rla_is_reliable_transport () =
  (* Every packet the frontier passed was received by every receiver:
     multicast reliability end-to-end under heavy loss. *)
  let net = Net.Network.create ~seed:3 () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves = List.init 5 (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  ignore
    (Net.Network.duplex net s hub
       (Experiments.Scenario.fast_link_config
          ~gateway:Experiments.Scenario.Droptail ~delay:0.005 ()));
  List.iter
    (fun leaf ->
      ignore
        (Net.Network.duplex net hub leaf
           (Experiments.Scenario.link_config
              ~gateway:Experiments.Scenario.Droptail ~mu_pkts:80.0 ~delay:0.03
              ~buffer:6 ())))
    leaves;
  Net.Network.install_routes net;
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 120.0;
  let frontier = Rla.Sender.max_reach_all rla in
  Alcotest.(check bool) "made progress under loss" true (frontier > 1000);
  List.iter
    (fun ep ->
      Alcotest.(check bool) "receiver has full prefix" true
        ((Rla.Receiver.capture ep).s_expected >= frontier))
    (Rla.Sender.For_testing.receiver_endpoints rla)

let test_red_tighter_than_droptail () =
  (* Theorem I vs II: RED gives tighter bounds; empirically the RED
     ratio should not be wildly further from 1 than the drop-tail
     ratio.  We check both stay in the drop-tail band. *)
  let dt =
    sharing ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L1_bottleneck ~duration:150.0 ~seed:2
  in
  let red =
    sharing ~gateway:Experiments.Scenario.Red
      ~case:Experiments.Tree.L1_bottleneck ~duration:150.0 ~seed:2
  in
  Alcotest.(check bool) "droptail fair" true dt.Experiments.Sharing.essentially_fair;
  Alcotest.(check bool) "red fair" true red.Experiments.Sharing.essentially_fair


let test_ecn_reduces_retransmissions () =
  let rows = Experiments.Ecn.run ~duration:100.0 () in
  match rows with
  | [ { Experiments.Ecn.ecn = false; result = off }; { ecn = true; result = on } ] ->
      Alcotest.(check bool) "both fair" true
        (off.Experiments.Sharing.essentially_fair
        && on.Experiments.Sharing.essentially_fair);
      let r_off = off.Experiments.Sharing.rla.Rla.Sender.rexmits in
      let r_on = on.Experiments.Sharing.rla.Rla.Sender.rexmits in
      Alcotest.(check bool)
        (Printf.sprintf "rexmits collapse (%d -> %d)" r_off r_on)
        true
        (r_on * 2 < r_off)
  | _ -> Alcotest.fail "expected off/on rows"

let () =
  Alcotest.run "integration"
    [
      ( "fairness",
        [
          Alcotest.test_case "case 3 drop-tail" `Slow
            test_case3_droptail_essentially_fair;
          Alcotest.test_case "case 3 RED" `Slow test_case3_red_essentially_fair;
          Alcotest.test_case "correlation lemma" `Slow
            test_correlation_lemma_in_simulation;
          Alcotest.test_case "case 5 multicast advantage" `Slow
            test_case5_multicast_gets_more;
          Alcotest.test_case "RED vs droptail" `Slow test_red_tighter_than_droptail;
          Alcotest.test_case "ECN reduces retransmissions" `Slow
            test_ecn_reduces_retransmissions;
        ] );
      ( "mechanics",
        [
          Alcotest.test_case "signal counts similar" `Slow
            test_signal_counts_similar_uniform_case;
          Alcotest.test_case "cut fraction" `Slow test_rla_window_cut_fraction;
          Alcotest.test_case "reliability" `Slow test_rla_is_reliable_transport;
        ] );
      ( "multi-session",
        [
          Alcotest.test_case "equal split" `Slow test_two_sessions_split_equally;
        ] );
      ( "different rtt",
        [
          Alcotest.test_case "generalized helps" `Slow
            test_generalized_rla_helps_diff_rtt;
          Alcotest.test_case "reasonable share" `Slow test_diff_rtt_reasonable_share;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "replay" `Slow test_sharing_deterministic;
          Alcotest.test_case "seed sensitivity" `Slow test_seed_changes_run;
          Alcotest.test_case "invariants passive" `Slow
            test_invariants_do_not_perturb_run;
          Alcotest.test_case "checkpoint/restore byte-identical" `Slow
            test_checkpoint_restore_byte_identical;
        ] );
    ]
