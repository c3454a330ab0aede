(* Tests for the experiments library: scenario helpers, the tree
   builder, and (short) runs of each experiment harness. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Scenario                                                           *)
(* ------------------------------------------------------------------ *)

let test_scenario_gateway_names () =
  Alcotest.(check string) "droptail" "drop-tail"
    (Experiments.Scenario.gateway_name Experiments.Scenario.Droptail);
  Alcotest.(check string) "red" "RED"
    (Experiments.Scenario.gateway_name Experiments.Scenario.Red);
  Alcotest.(check bool) "parse red" true
    (Experiments.Scenario.gateway_of_string "RED" = Some Experiments.Scenario.Red);
  Alcotest.(check bool) "parse tail" true
    (Experiments.Scenario.gateway_of_string "drop-tail"
    = Some Experiments.Scenario.Droptail);
  Alcotest.(check bool) "parse junk" true
    (Experiments.Scenario.gateway_of_string "fifo" = None)

let test_scenario_link_config () =
  let c =
    Experiments.Scenario.link_config ~gateway:Experiments.Scenario.Droptail
      ~mu_pkts:100.0 ~delay:0.05 ()
  in
  check_float "bandwidth for 100 pkt/s of 1000 B" 800_000.0 c.Net.Link.bandwidth_bps;
  Alcotest.(check int) "buffer 20" 20 c.Net.Link.capacity;
  Alcotest.(check bool) "droptail jitter on" true c.Net.Link.phase_jitter;
  let r =
    Experiments.Scenario.link_config ~gateway:Experiments.Scenario.Red
      ~mu_pkts:100.0 ~delay:0.05 ()
  in
  Alcotest.(check bool) "red jitter off" false r.Net.Link.phase_jitter;
  match r.Net.Link.queue with
  | Net.Queue_disc.Red_gateway p ->
      check_float "min th" 5.0 p.Net.Red.min_th;
      check_float "max th" 15.0 p.Net.Red.max_th
  | _ -> Alcotest.fail "expected RED queue"

let test_scenario_jitter_override () =
  let c =
    Experiments.Scenario.link_config ~gateway:Experiments.Scenario.Droptail
      ~mu_pkts:100.0 ~delay:0.05 ~phase_jitter:false ()
  in
  Alcotest.(check bool) "override respected" false c.Net.Link.phase_jitter

(* ------------------------------------------------------------------ *)
(* Tree                                                               *)
(* ------------------------------------------------------------------ *)

let test_tree_case_mapping () =
  Alcotest.(check string) "case 1" "L1"
    (Experiments.Tree.case_name (Experiments.Tree.case_of_index 1));
  Alcotest.(check string) "case 5" "L21"
    (Experiments.Tree.case_name (Experiments.Tree.case_of_index 5));
  Alcotest.(check bool) "case 6 invalid" true
    (try ignore (Experiments.Tree.case_of_index 6); false
     with Invalid_argument _ -> true)

let build case =
  Experiments.Tree.build ~seed:1 ~gateway:Experiments.Scenario.Droptail ~case ()

let test_tree_structure () =
  let t = build Experiments.Tree.L4_all in
  (* S + G1 + 3 G2 + 9 G3 + 27 leaves. *)
  Alcotest.(check int) "41 nodes" 41 (List.length (Net.Network.capture t.Experiments.Tree.net).Net.Network.s_nodes);
  Alcotest.(check int) "3 g2" 3 (Array.length t.Experiments.Tree.g2);
  Alcotest.(check int) "9 g3" 9 (Array.length t.Experiments.Tree.g3);
  Alcotest.(check int) "27 leaves" 27 (Array.length t.Experiments.Tree.leaves);
  (* 40 duplex links = 80 directed. *)
  Alcotest.(check int) "80 directed links" 80
    (List.length (Net.Network.links t.Experiments.Tree.net))

let test_tree_paths_equal_length () =
  let t = build Experiments.Tree.L4_all in
  let net = t.Experiments.Tree.net in
  Array.iter
    (fun leaf ->
      Alcotest.(check int) "4 hops to each leaf" 4
        (List.length (Net.Network.path net t.Experiments.Tree.root leaf)))
    t.Experiments.Tree.leaves

let bandwidth_between t a b =
  match Net.Network.link_between t.Experiments.Tree.net a b with
  | Some l -> (Net.Link.config l).Net.Link.bandwidth_bps
  | None -> Alcotest.fail "missing link"

let test_tree_case1_capacity () =
  let t = build Experiments.Tree.L1_bottleneck in
  (* L1 carries 27 TCPs + multicast: 100 * 28 pkt/s = 22.4 Mbps. *)
  check_float "root link capacity" (2800.0 *. 8000.0)
    (bandwidth_between t t.Experiments.Tree.root t.Experiments.Tree.g1);
  (* Leaf links are fast. *)
  Alcotest.(check bool) "leaf links fast" true
    (bandwidth_between t t.Experiments.Tree.g3.(0) t.Experiments.Tree.leaves.(0)
    > 9.0e7)

let test_tree_case3_capacity () =
  let t = build Experiments.Tree.L4_all in
  (* Each L4 carries 1 TCP + multicast: 200 pkt/s. *)
  check_float "leaf link capacity" (200.0 *. 8000.0)
    (bandwidth_between t t.Experiments.Tree.g3.(0) t.Experiments.Tree.leaves.(0));
  Alcotest.(check bool) "root link fast" true
    (bandwidth_between t t.Experiments.Tree.root t.Experiments.Tree.g1 > 9.0e7)

let test_tree_case4_partial () =
  let t = build (Experiments.Tree.L4_first 5) in
  Alcotest.(check int) "five congested leaves" 5
    (List.length t.Experiments.Tree.congested_leaves);
  (* Leaf 0 congested, leaf 10 not. *)
  check_float "congested leaf" (200.0 *. 8000.0)
    (bandwidth_between t t.Experiments.Tree.g3.(0) t.Experiments.Tree.leaves.(0));
  Alcotest.(check bool) "uncongested leaf fast" true
    (bandwidth_between t t.Experiments.Tree.g3.(3) t.Experiments.Tree.leaves.(10)
    > 9.0e7)

let test_tree_case5_subtree () =
  let t = build Experiments.Tree.L2_single in
  Alcotest.(check int) "nine receivers behind L21" 9
    (List.length t.Experiments.Tree.congested_leaves);
  (* L21 carries 9 TCPs + multicast: 1000 pkt/s. *)
  check_float "L21 capacity" (1000.0 *. 8000.0)
    (bandwidth_between t t.Experiments.Tree.g1 t.Experiments.Tree.g2.(0));
  (* L22 is not congested. *)
  Alcotest.(check bool) "L22 fast" true
    (bandwidth_between t t.Experiments.Tree.g1 t.Experiments.Tree.g2.(1) > 9.0e7)

let test_tree_g3_receivers () =
  let t =
    Experiments.Tree.build ~seed:1 ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L3_all ~receivers_include_g3:true ()
  in
  let rs = Experiments.Tree.receivers t ~include_g3:true in
  Alcotest.(check int) "36 receivers" 36 (List.length rs);
  (* Background TCPs stay on the leaves (figure 10's TCP rows all show
     leaf RTTs), so each L3 still carries 3 TCPs: 400 pkt/s. *)
  check_float "L3 capacity" (400.0 *. 8000.0)
    (bandwidth_between t t.Experiments.Tree.g2.(0) t.Experiments.Tree.g3.(0))

(* ------------------------------------------------------------------ *)
(* Short end-to-end runs of the harnesses                             *)
(* ------------------------------------------------------------------ *)

let short_sharing_config case =
  {
    (Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
       ~case)
    with
    Experiments.Sharing.duration = 40.0;
    warmup = 10.0;
  }

let test_sharing_run_structure () =
  let r = Experiments.Sharing.run (short_sharing_config Experiments.Tree.L4_all) in
  Alcotest.(check int) "27 receivers" 27 r.Experiments.Sharing.n_receivers;
  Alcotest.(check int) "27 tcp flows" 27 (List.length r.Experiments.Sharing.tcps);
  Alcotest.(check bool) "worst <= best" true
    (r.Experiments.Sharing.wtcp.Tcp.Sender.throughput
    <= r.Experiments.Sharing.btcp.Tcp.Sender.throughput);
  Alcotest.(check bool) "rla made progress" true
    (r.Experiments.Sharing.rla.Rla.Sender.throughput > 0.0);
  Alcotest.(check (option unit)) "uniform case has no rest group" None
    (Option.map (fun _ -> ()) r.Experiments.Sharing.rla_signals_rest)

let test_sharing_case4_groups () =
  let r =
    Experiments.Sharing.run (short_sharing_config (Experiments.Tree.L4_first 5))
  in
  (match r.Experiments.Sharing.rla_signals_rest with
  | Some _ -> ()
  | None -> Alcotest.fail "case 4 must split groups");
  Alcotest.(check bool) "congested flows flagged" true
    (List.exists (fun f -> f.Experiments.Sharing.congested)
       r.Experiments.Sharing.tcps
    && List.exists
         (fun f -> not f.Experiments.Sharing.congested)
         r.Experiments.Sharing.tcps)

let test_multi_session_structure () =
  let config =
    {
      (Experiments.Multi_session.default_config
         ~gateway:Experiments.Scenario.Droptail)
      with
      Experiments.Multi_session.duration = 40.0;
      warmup = 10.0;
    }
  in
  let r = Experiments.Multi_session.run config in
  Alcotest.(check bool) "both sessions alive" true
    (r.Experiments.Multi_session.session1.Rla.Sender.throughput > 0.0
    && r.Experiments.Multi_session.session2.Rla.Sender.throughput > 0.0)

let test_diff_rtt_structure () =
  let config = Experiments.Diff_rtt.default_config ~case_index:2 in
  let r =
    Experiments.Diff_rtt.run
      { config with Experiments.Diff_rtt.duration = 40.0; warmup = 10.0 }
  in
  Alcotest.(check int) "36 receivers" 36 r.Experiments.Diff_rtt.n_receivers;
  Alcotest.(check bool) "progress" true
    (r.Experiments.Diff_rtt.rla.Rla.Sender.throughput > 0.0)

let test_diff_rtt_bad_case () =
  Alcotest.(check bool) "case 3 invalid" true
    (try ignore (Experiments.Diff_rtt.default_config ~case_index:3); false
     with Invalid_argument _ -> true)

let test_validation_run () =
  let points =
    Experiments.Validation.run
      {
        Experiments.Validation.ps = [ 0.01 ];
        duration = 60.0;
        warmup = 10.0;
        seed = 1;
        rtt = 0.1;
      }
  in
  match points with
  | [ pt ] ->
      Alcotest.(check bool)
        (Printf.sprintf "ratio %.2f within 15%%" pt.Experiments.Validation.ratio)
        true
        (pt.Experiments.Validation.ratio > 0.85
        && pt.Experiments.Validation.ratio < 1.15)
  | _ -> Alcotest.fail "expected one point"

let test_baseline_run () =
  (* The matrix's default warm-up is 100 s, so 110 s measures 10 s. *)
  let r =
    List.find
      (fun (r : Experiments.Baseline_fairness.result) ->
        r.config.gateway = Experiments.Scenario.Droptail
        && r.config.scheme = Experiments.Baseline_fairness.Scheme_cbr)
      (Experiments.Baseline_fairness.run_matrix ~duration:110.0 ())
  in
  Alcotest.(check bool) "cbr delivered about its rate" true
    (r.Experiments.Baseline_fairness.mcast_throughput > 50.0);
  Alcotest.(check bool) "tcp alive" true
    (r.Experiments.Baseline_fairness.tcp_mean > 0.0)

let test_buffer_dynamics_run () =
  let r =
    Experiments.Buffer_dynamics.run
      {
        Experiments.Buffer_dynamics.default_config with
        Experiments.Buffer_dynamics.duration = 80.0;
        warmup = 20.0;
      }
  in
  Alcotest.(check bool) "episodes observed" true (r.Experiments.Buffer_dynamics.episodes > 3);
  Alcotest.(check bool) "drops grouped" true
    (r.Experiments.Buffer_dynamics.drops
    >= r.Experiments.Buffer_dynamics.episodes);
  Alcotest.(check bool)
    (Printf.sprintf "gaps (%.2f) exceed episode lengths (%.2f)"
       r.Experiments.Buffer_dynamics.mean_gap
       r.Experiments.Buffer_dynamics.mean_episode_length)
    true
    (r.Experiments.Buffer_dynamics.mean_gap
    > r.Experiments.Buffer_dynamics.mean_episode_length);
  Alcotest.(check bool) "episodes within ~2RTT" true
    (r.Experiments.Buffer_dynamics.episode_over_2rtt < 1.5)

let test_buffer_dynamics_needs_flows () =
  Alcotest.(check bool) "zero flows rejected" true
    (try
       ignore
         (Experiments.Buffer_dynamics.run
            { Experiments.Buffer_dynamics.default_config with
              Experiments.Buffer_dynamics.n_tcp = 0 });
       false
     with Invalid_argument _ -> true)

let test_scaling_run () =
  let points =
    Experiments.Scaling.run
      {
        Experiments.Scaling.default_config with
        Experiments.Scaling.ns = [ 2; 8 ];
        duration = 80.0;
        warmup = 20.0;
      }
  in
  match points with
  | [ p2; p8 ] ->
      Alcotest.(check int) "n recorded" 2 p2.Experiments.Scaling.n;
      (* The throughput must not collapse with receiver count: with the
         1/n listening rule, 8 receivers keep well above share/4. *)
      Alcotest.(check bool)
        (Printf.sprintf "n=8 throughput %.1f stays high"
           p8.Experiments.Scaling.rla_throughput)
        true
        (p8.Experiments.Scaling.rla_throughput > 25.0);
      Alcotest.(check bool) "ratio bounded" true
        (p8.Experiments.Scaling.ratio > 0.25
        && p8.Experiments.Scaling.ratio < 16.0)
  | _ -> Alcotest.fail "expected two points"

let test_short_flows_run () =
  let r =
    Experiments.Short_flows.run
      {
        (Experiments.Short_flows.default_config Experiments.Short_flows.Bg_rla)
        with
        Experiments.Short_flows.duration = 100.0;
        warmup = 20.0;
        arrival_rate = 1.0;
      }
  in
  Alcotest.(check bool) "flows launched" true (r.Experiments.Short_flows.launched > 20);
  Alcotest.(check bool) "most completed" true
    (r.Experiments.Short_flows.completed
    >= r.Experiments.Short_flows.launched * 9 / 10);
  Alcotest.(check bool) "reasonable completion time" true
    (r.Experiments.Short_flows.mean_completion > 0.0
    && r.Experiments.Short_flows.mean_completion < 30.0)

let test_short_flows_cbr_starves () =
  let r =
    Experiments.Short_flows.run
      {
        (Experiments.Short_flows.default_config
           (Experiments.Short_flows.Bg_cbr 220.0))
        with
        Experiments.Short_flows.duration = 100.0;
        warmup = 20.0;
      }
  in
  (* An overload CBR leaves almost no room for the short flows. *)
  Alcotest.(check bool)
    (Printf.sprintf "few complete (%d/%d)" r.Experiments.Short_flows.completed
       r.Experiments.Short_flows.launched)
    true
    (r.Experiments.Short_flows.completed
    <= r.Experiments.Short_flows.launched / 4)

(* Each adversary's live behaviour, read through the hostile result on
   a small k-ary tree. *)
let hostile_run ?(lookahead = 0) mix =
  Experiments.Hostile.run
    {
      (Experiments.Hostile.default_config ~mix) with
      Experiments.Hostile.topology =
        Experiments.Hostile.Kary { fanout = 2; depth = 2 };
      duration = 20.0;
      warmup = 5.0;
      flood_rate = 200.0;
      optack_lookahead = lookahead;
    }

let test_flood_accessors () =
  (* The flood paces at its configured rate into a counting sink. *)
  let flood = hostile_run Experiments.Hostile.Nonbackoff in
  Alcotest.(check bool)
    (Printf.sprintf "flood blasts at 200 pkt/s (%.1f)" flood.adv_send_rate)
    true
    (Float.abs (flood.adv_send_rate -. 200.0) < 2.0);
  Alcotest.(check bool) "flood deliveries counted at the sink" true
    (flood.adv_delivered_rate > 0.0
    && flood.adv_delivered_rate <= flood.adv_send_rate)

let test_ackdiv_accessors () =
  (* The ack divider keeps sending and gets data through. *)
  let div = hostile_run Experiments.Hostile.Ackdiv in
  Alcotest.(check bool) "ack divider makes progress" true
    (div.adv_send_rate > 0.0 && div.adv_delivered_rate > 0.0)

let test_optack_accessors () =
  (* An optimistic acker claiming only up to max_seen + 1 conceals
     holes undetectably; claiming past the data it saw is caught. *)
  let conceal = hostile_run Experiments.Hostile.Optack in
  Alcotest.(check int) "lookahead 0 leaves no ghost acks" 0
    conceal.ghost_acks;
  let ahead = hostile_run ~lookahead:2 Experiments.Hostile.Optack in
  Alcotest.(check bool) "acks past the sent data are ghost acks" true
    (ahead.ghost_acks > 0)

let test_hostile_names_and_job () =
  List.iter
    (fun (mix, name) ->
      Alcotest.(check string) "label is topology/mix" ("kary2x2/" ^ name)
        (hostile_run mix).Experiments.Hostile.label)
    [
      (Experiments.Hostile.Honest, "none");
      (Experiments.Hostile.Nonbackoff, "nonbackoff");
      (Experiments.Hostile.Ackdiv, "ackdiv");
      (Experiments.Hostile.Optack, "optack");
      (Experiments.Hostile.Rst, "rst");
    ];
  (* A sweep runs each mix as a labelled pool job; the job's result is
     the direct run's. *)
  match
    Experiments.Hostile.sweep ~mixes:[ Experiments.Hostile.Honest ]
      ~case_index:1 ~duration:20.0 ~warmup:5.0 ~jobs:1 ()
  with
  | [ o ] ->
      Alcotest.(check string) "job label is mix/seed" "none/seed1"
        o.Runner.Pool.label;
      let direct =
        Experiments.Hostile.run
          {
            (Experiments.Hostile.default_config
               ~mix:Experiments.Hostile.Honest)
            with
            Experiments.Hostile.topology =
              Experiments.Hostile.Fig6 (Experiments.Tree.case_of_index 1);
            duration = 20.0;
            warmup = 5.0;
            seed = 1;
          }
      in
      Alcotest.(check bool) "job and direct runs agree" true
        (o.Runner.Pool.value = direct)
  | os -> Alcotest.failf "one job expected, got %d" (List.length os)

let test_ablation_variant_lists () =
  Alcotest.(check int) "grouping" 4
    (List.length (Experiments.Ablation.grouping_variants ()));
  Alcotest.(check int) "forced cut" 4
    (List.length (Experiments.Ablation.forced_cut_variants ()));
  Alcotest.(check int) "eta" 4 (List.length (Experiments.Ablation.eta_variants ()));
  Alcotest.(check int) "phase" 2
    (List.length (Experiments.Ablation.phase_variants ()));
  Alcotest.(check int) "exponent" 3
    (List.length (Experiments.Ablation.rtt_exponent_variants ()));
  Alcotest.(check int) "rexmit timeout" 4
    (List.length (Experiments.Ablation.rexmit_timeout_variants ()));
  Alcotest.(check int) "ack jitter" 3
    (List.length (Experiments.Ablation.ack_jitter_variants ()))

(* ------------------------------------------------------------------ *)
(* Timeseries                                                         *)
(* ------------------------------------------------------------------ *)

(* The CSV as (header, rows): one float array per sample, time first. *)
let timeseries_rows ts =
  let csv = Format.asprintf "%a" Experiments.Timeseries.to_csv ts in
  match String.split_on_char '\n' (String.trim csv) with
  | [] -> ("", [])
  | header :: rows ->
      ( header,
        List.map
          (fun row ->
            Array.of_list
              (List.map float_of_string (String.split_on_char ',' row)))
          rows )

let test_timeseries_sampling () =
  let net = Net.Network.create ~seed:1 () in
  let counter = ref 0.0 in
  let ts =
    Experiments.Timeseries.create ~net ~interval:0.5
      ~probes:
        [
          { Experiments.Timeseries.name = "c"; read = (fun () -> !counter) };
          {
            Experiments.Timeseries.name = "t";
            read = (fun () -> Net.Network.now net);
          };
        ]
  in
  ignore
    (Sim.Scheduler.schedule_at (Net.Network.scheduler net) 1.2 (fun () ->
         counter := 7.0));
  Net.Network.run_until net 3.0;
  (* Samples at 0.5, 1.0, ..., 3.0. *)
  let header, rows = timeseries_rows ts in
  Alcotest.(check int) "six samples" 6 (List.length rows);
  Alcotest.(check string) "names" "time,c,t" header;
  let c = List.map (fun row -> row.(1)) rows in
  Alcotest.(check (float 1e-9)) "before change" 0.0 (List.nth c 1);
  Alcotest.(check (float 1e-9)) "after change" 7.0 (List.nth c 2);
  (* The last sample at or before a time holds the value then. *)
  let value_at time =
    List.fold_left
      (fun v row -> if row.(0) <= time then row.(1) else v)
      nan rows
  in
  Alcotest.(check (float 1e-9)) "value_at" 0.0 (value_at 1.1);
  Alcotest.(check (float 1e-9)) "value_at later" 7.0 (value_at 2.9)

let test_timeseries_csv () =
  let net = Net.Network.create ~seed:1 () in
  let ts =
    Experiments.Timeseries.create ~net ~interval:1.0
      ~probes:[ { Experiments.Timeseries.name = "x"; read = (fun () -> 1.5) } ]
  in
  Net.Network.run_until net 2.0;
  let buf = Buffer.create 128 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Timeseries.to_csv ppf ts;
  Format.pp_print_flush ppf ();
  let lines = String.split_on_char '\n' (String.trim (Buffer.contents buf)) in
  Alcotest.(check int) "header + 2 rows" 3 (List.length lines);
  Alcotest.(check string) "header" "time,x" (List.hd lines)

let test_timeseries_times () =
  (* One timestamp per sample in the CSV's time column, ascending. *)
  let net = Net.Network.create ~seed:1 () in
  let ts =
    Experiments.Timeseries.create ~net ~interval:0.5
      ~probes:
        [
          { Experiments.Timeseries.name = "now"; read = (fun () -> Net.Network.now net) };
        ]
  in
  Net.Network.run_until net 2.0;
  let _, rows = timeseries_rows ts in
  let times = List.map (fun row -> row.(0)) rows in
  Alcotest.(check bool) "sampled" true (times <> []);
  (* Samples at 0.5, 1.0, 1.5, 2.0, each stamped with its own time. *)
  Alcotest.(check (list (float 1e-9))) "one timestamp per sample"
    (List.map (fun row -> row.(1)) rows) times;
  Alcotest.(check bool) "timestamps ascend" true
    (List.sort compare times = times)

let test_short_flows_background_names () =
  let row background =
    {
      Experiments.Short_flows.config =
        Experiments.Short_flows.default_config background;
      launched = 0;
      completed = 0;
      mean_completion = 0.0;
      p95_completion = 0.0;
      background_throughput = 0.0;
    }
  in
  let table =
    Format.asprintf "%a" Experiments.Short_flows.print
      (List.map row
         [
           Experiments.Short_flows.Bg_none;
           Experiments.Short_flows.Bg_tcp;
           Experiments.Short_flows.Bg_rla;
           Experiments.Short_flows.Bg_cbr 500.0;
         ])
  in
  let first_words =
    List.filter_map
      (fun line ->
        match String.split_on_char ' ' line with
        | w :: _ when List.mem w [ "idle"; "TCP"; "RLA"; "CBR@500" ] -> Some w
        | _ -> None)
      (String.split_on_char '\n' table)
  in
  Alcotest.(check (list string)) "one distinct name per background"
    [ "idle"; "TCP"; "RLA"; "CBR@500" ] first_words

let test_timeseries_validation () =
  let net = Net.Network.create ~seed:1 () in
  Alcotest.(check bool) "no probes rejected" true
    (try
       ignore (Experiments.Timeseries.create ~net ~interval:1.0 ~probes:[]);
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad interval rejected" true
    (try
       ignore
         (Experiments.Timeseries.create ~net ~interval:0.0
            ~probes:[ { Experiments.Timeseries.name = "x"; read = (fun () -> 0.0) } ]);
       false
     with Invalid_argument _ -> true)

let test_ecn_experiment_rows () =
  let rows = Experiments.Ecn.run ~duration:60.0 () in
  match rows with
  | [ { Experiments.Ecn.ecn = false; _ }; { Experiments.Ecn.ecn = true; result } ] ->
      Alcotest.(check bool) "measured something" true
        (result.Experiments.Sharing.rla.Rla.Sender.send_rate > 0.0)
  | _ -> Alcotest.fail "expected [off; on]"

let test_runner_warmup_guard () =
  Alcotest.(check bool) "sharing rejects duration <= warmup" true
    (try
       ignore
         (Experiments.Sharing.run
            {
              (Experiments.Sharing.default_config
                 ~gateway:Experiments.Scenario.Droptail
                 ~case:Experiments.Tree.L4_all)
              with
              Experiments.Sharing.duration = 50.0;
              warmup = 100.0;
            });
       false
     with Invalid_argument _ -> true)

let test_report_printers_do_not_crash () =
  let r = Experiments.Sharing.run (short_sharing_config Experiments.Tree.L4_all) in
  let buf = Buffer.create 1024 in
  let ppf = Format.formatter_of_buffer buf in
  Experiments.Report.print_sharing_table ppf ~title:"test" [ r ];
  Experiments.Report.print_signal_table ppf [ r ];
  let field =
    Analysis.Particle.drift_field
      (Analysis.Particle.uniform_pipes ~pipe:10.0 ~n:3)
      ~x_max:10.0 ~y_max:10.0 ~step:2.0
  in
  Experiments.Report.print_drift_field ppf field;
  let stats =
    Analysis.Particle.simulate ~rng:(Sim.Rng.create 1)
      (Analysis.Particle.uniform_pipes ~pipe:10.0 ~n:3)
      ~steps:1000 ()
  in
  Experiments.Report.print_particle_run ppf stats;
  Format.pp_print_flush ppf ();
  Alcotest.(check bool) "produced output" true (Buffer.length buf > 500)

let () =
  Alcotest.run "experiments"
    [
      ( "adversary",
        [
          Alcotest.test_case "flood accessors" `Quick test_flood_accessors;
          Alcotest.test_case "ackdiv accessors" `Quick test_ackdiv_accessors;
          Alcotest.test_case "optack accessors" `Quick test_optack_accessors;
          Alcotest.test_case "hostile names and job" `Quick
            test_hostile_names_and_job;
        ] );
      ( "experiments",
        [
          Alcotest.test_case "short-flow background names" `Quick
            test_short_flows_background_names;
          Alcotest.test_case "timeseries times" `Quick test_timeseries_times;
        ] );
      ( "scenario",
        [
          Alcotest.test_case "gateway names" `Quick test_scenario_gateway_names;
          Alcotest.test_case "link config" `Quick test_scenario_link_config;
          Alcotest.test_case "jitter override" `Quick test_scenario_jitter_override;
        ] );
      ( "tree",
        [
          Alcotest.test_case "case mapping" `Quick test_tree_case_mapping;
          Alcotest.test_case "structure" `Quick test_tree_structure;
          Alcotest.test_case "equal path lengths" `Quick test_tree_paths_equal_length;
          Alcotest.test_case "case 1 capacity" `Quick test_tree_case1_capacity;
          Alcotest.test_case "case 3 capacity" `Quick test_tree_case3_capacity;
          Alcotest.test_case "case 4 partial" `Quick test_tree_case4_partial;
          Alcotest.test_case "case 5 subtree" `Quick test_tree_case5_subtree;
          Alcotest.test_case "g3 receivers" `Quick test_tree_g3_receivers;
        ] );
      ( "harness",
        [
          Alcotest.test_case "sharing structure" `Slow test_sharing_run_structure;
          Alcotest.test_case "case 4 groups" `Slow test_sharing_case4_groups;
          Alcotest.test_case "multi session" `Slow test_multi_session_structure;
          Alcotest.test_case "diff rtt" `Slow test_diff_rtt_structure;
          Alcotest.test_case "diff rtt bad case" `Quick test_diff_rtt_bad_case;
          Alcotest.test_case "validation" `Slow test_validation_run;
          Alcotest.test_case "baseline" `Slow test_baseline_run;
          Alcotest.test_case "ablation variants" `Quick test_ablation_variant_lists;
          Alcotest.test_case "buffer dynamics" `Slow test_buffer_dynamics_run;
          Alcotest.test_case "buffer dynamics guard" `Quick
            test_buffer_dynamics_needs_flows;
          Alcotest.test_case "scaling" `Slow test_scaling_run;
          Alcotest.test_case "short flows" `Slow test_short_flows_run;
          Alcotest.test_case "short flows cbr starvation" `Slow
            test_short_flows_cbr_starves;
          Alcotest.test_case "timeseries sampling" `Quick test_timeseries_sampling;
          Alcotest.test_case "timeseries csv" `Quick test_timeseries_csv;
          Alcotest.test_case "timeseries validation" `Quick
            test_timeseries_validation;
          Alcotest.test_case "ecn rows" `Slow test_ecn_experiment_rows;
          Alcotest.test_case "warmup guard" `Quick test_runner_warmup_guard;
          Alcotest.test_case "report printers" `Slow test_report_printers_do_not_crash;
        ] );
    ]
