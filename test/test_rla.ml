(* Tests for the RLA core library: parameters, fairness definitions,
   per-receiver state, and the sender on small multicast networks. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Params                                                             *)
(* ------------------------------------------------------------------ *)

let test_params_defaults () =
  let p = Rla.Params.default in
  check_float "eta" 20.0 p.Rla.Params.eta;
  check_float "grouping" 2.0 p.Rla.Params.group_rtt_factor;
  check_float "forced cut" 2.0 p.Rla.Params.forced_cut_factor;
  Alcotest.(check int) "rexmit thresh" 0 p.Rla.Params.rexmit_thresh;
  Alcotest.(check bool) "restricted" true
    (p.Rla.Params.rtt_scaling = Rla.Params.Equal_rtt)

let test_params_generalized () =
  let p = Rla.Params.generalized Rla.Params.default in
  (match p.Rla.Params.rtt_scaling with
  | Rla.Params.Rtt_power k -> check_float "default k" 2.0 k
  | Rla.Params.Equal_rtt -> Alcotest.fail "expected generalized");
  let p1 = Rla.Params.generalized ~k:1.0 Rla.Params.default in
  match p1.Rla.Params.rtt_scaling with
  | Rla.Params.Rtt_power k -> check_float "custom k" 1.0 k
  | Rla.Params.Equal_rtt -> Alcotest.fail "expected generalized"

(* ------------------------------------------------------------------ *)
(* Fairness                                                           *)
(* ------------------------------------------------------------------ *)

let test_fairness_share () =
  check_float "mu/(m+1)" 50.0
    (Rla.Fairness.For_testing.share { Rla.Fairness.mu = 200.0; tcp_flows = 3 });
  check_float "no tcp" 200.0
    (Rla.Fairness.For_testing.share { Rla.Fairness.mu = 200.0; tcp_flows = 0 })

let test_fairness_soft_bottleneck () =
  let branches =
    [
      { Rla.Fairness.mu = 1000.0; tcp_flows = 1 };
      (* share 500 *)
      { Rla.Fairness.mu = 300.0; tcp_flows = 2 };
      (* share 100 <- soft bottleneck *)
      { Rla.Fairness.mu = 150.0; tcp_flows = 0 };
      (* share 150 *)
    ]
  in
  Alcotest.(check int) "index" 1 (Rla.Fairness.For_testing.soft_bottleneck branches);
  check_float "fair share" 100.0 (Rla.Fairness.For_testing.fair_share branches)

let test_fairness_soft_vs_hard () =
  (* The hard bottleneck (min mu) is branch 1, but branch 0 with many
     TCP flows is the soft bottleneck. *)
  let branches =
    [
      { Rla.Fairness.mu = 500.0; tcp_flows = 9 };
      (* share 50 *)
      { Rla.Fairness.mu = 100.0; tcp_flows = 0 };
      (* share 100 *)
    ]
  in
  Alcotest.(check int) "soft, not hard" 0 (Rla.Fairness.For_testing.soft_bottleneck branches)

let test_fairness_empty () =
  Alcotest.(check bool) "empty raises" true
    (try ignore (Rla.Fairness.For_testing.soft_bottleneck []); false
     with Invalid_argument _ -> true)

let test_fairness_bounds () =
  let a, b = Rla.Fairness.essential_bounds Rla.Fairness.Red ~n:27 in
  check_float "RED a" (1.0 /. 3.0) a;
  Alcotest.(check (float 1e-9)) "RED b" (sqrt 81.0) b;
  let a, b = Rla.Fairness.essential_bounds Rla.Fairness.Droptail ~n:27 in
  check_float "droptail a" 0.25 a;
  check_float "droptail b" 54.0 b

let test_fairness_check () =
  Alcotest.(check bool) "fair case" true
    (Rla.Fairness.is_essentially_fair Rla.Fairness.Droptail ~n:4
       ~rla_throughput:100.0 ~tcp_throughput:100.0);
  Alcotest.(check bool) "starved multicast" false
    (Rla.Fairness.is_essentially_fair Rla.Fairness.Droptail ~n:4
       ~rla_throughput:10.0 ~tcp_throughput:100.0);
  Alcotest.(check bool) "dominating multicast" false
    (Rla.Fairness.is_essentially_fair Rla.Fairness.Droptail ~n:4
       ~rla_throughput:900.0 ~tcp_throughput:100.0)

let test_fairness_ratio_zero_tcp () =
  Alcotest.(check bool) "infinite" true
    (Rla.Fairness.measured_ratio ~rla_throughput:1.0 ~tcp_throughput:0.0
    = infinity);
  Alcotest.(check bool) "zero over zero still infinite" true
    (Rla.Fairness.measured_ratio ~rla_throughput:0.0 ~tcp_throughput:0.0
    = infinity)

let test_fairness_soft_bottleneck_tie () =
  (* Equal shares everywhere: the first minimal branch wins, so the
     designated bottleneck is stable under branch reordering of the
     non-minimal tail. *)
  let branches =
    [
      { Rla.Fairness.mu = 200.0; tcp_flows = 1 };
      (* share 100 *)
      { Rla.Fairness.mu = 100.0; tcp_flows = 0 };
      (* share 100 *)
      { Rla.Fairness.mu = 300.0; tcp_flows = 2 };
      (* share 100 *)
    ]
  in
  Alcotest.(check int) "first minimal wins" 0
    (Rla.Fairness.For_testing.soft_bottleneck branches);
  check_float "tied fair share" 100.0 (Rla.Fairness.For_testing.fair_share branches);
  (* A strictly smaller share later in the list still wins outright. *)
  let branches' = branches @ [ { Rla.Fairness.mu = 99.0; tcp_flows = 0 } ] in
  Alcotest.(check int) "strict minimum beats earlier ties" 3
    (Rla.Fairness.For_testing.soft_bottleneck branches')

let test_fairness_bounds_single_receiver () =
  let a, b = Rla.Fairness.essential_bounds Rla.Fairness.Red ~n:1 in
  check_float "RED a, n=1" (1.0 /. 3.0) a;
  check_float "RED b, n=1" (sqrt 3.0) b;
  let a, b = Rla.Fairness.essential_bounds Rla.Fairness.Droptail ~n:1 in
  check_float "droptail a, n=1" 0.25 a;
  check_float "droptail b, n=1" 2.0 b

(* ------------------------------------------------------------------ *)
(* Rcv_state                                                          *)
(* ------------------------------------------------------------------ *)

let make_rcv ?(params = Rla.Params.default) () =
  Rla.Rcv_state.create ~addr:1 ~params ~session_start:0.0 ()

let test_rcv_state_initial () =
  let r = make_rcv () in
  Alcotest.(check int) "no signals" 0 (Rla.Rcv_state.signals r);
  check_float "no srtt" 0.0 (Rla.Rcv_state.srtt r);
  Alcotest.(check bool) "interval infinite" true
    (Rla.Rcv_state.mean_signal_interval r ~now:10.0 = infinity);
  Alcotest.(check bool) "not troubled before signals" false
    (Rla.Rcv_state.is_troubled r ~now:10.0 ~min_interval:1.0 ~eta:20.0)

let test_rcv_state_srtt () =
  let r = make_rcv () in
  Rla.Rcv_state.observe_rtt r 0.2;
  check_float "first sample" 0.2 (Rla.Rcv_state.srtt r);
  Rla.Rcv_state.observe_rtt r 0.4;
  check_float "ewma 1/8" 0.225 (Rla.Rcv_state.srtt r)

let test_rcv_state_signal_grouping () =
  let r = make_rcv () in
  Rla.Rcv_state.observe_rtt r 0.5;
  (* First losses open a congestion period. *)
  Alcotest.(check bool) "first = signal" true
    (Rla.Rcv_state.register_losses r ~now:10.0);
  (* Within 2*srtt = 1 s: grouped, no new signal. *)
  Alcotest.(check bool) "grouped" false
    (Rla.Rcv_state.register_losses r ~now:10.5);
  (* Past the window: a new signal. *)
  Alcotest.(check bool) "new period" true
    (Rla.Rcv_state.register_losses r ~now:11.5);
  Alcotest.(check int) "two signals" 2 (Rla.Rcv_state.signals r)

let test_rcv_state_grouping_disabled () =
  let params = { Rla.Params.default with Rla.Params.group_rtt_factor = 0.0 } in
  let r = Rla.Rcv_state.create ~addr:1 ~params ~session_start:0.0 () in
  Rla.Rcv_state.observe_rtt r 0.5;
  Alcotest.(check bool) "signal 1" true (Rla.Rcv_state.register_losses r ~now:1.0);
  Alcotest.(check bool) "signal 2 immediately" true
    (Rla.Rcv_state.register_losses r ~now:1.0001)

let test_rcv_state_interval_tracking () =
  let r = make_rcv () in
  Rla.Rcv_state.observe_rtt r 0.1;
  ignore (Rla.Rcv_state.register_losses r ~now:10.0);
  ignore (Rla.Rcv_state.register_losses r ~now:20.0);
  ignore (Rla.Rcv_state.register_losses r ~now:30.0);
  let mean = Rla.Rcv_state.mean_signal_interval r ~now:30.0 in
  Alcotest.(check bool)
    (Printf.sprintf "interval %.1f reflects 10 s cadence" mean)
    true
    (mean >= 9.0 && mean <= 11.0)

let test_rcv_state_aging () =
  let r = make_rcv () in
  Rla.Rcv_state.observe_rtt r 0.1;
  ignore (Rla.Rcv_state.register_losses r ~now:1.0);
  ignore (Rla.Rcv_state.register_losses r ~now:2.0);
  Alcotest.(check bool) "troubled while fresh" true
    (Rla.Rcv_state.is_troubled r ~now:2.0 ~min_interval:1.0 ~eta:20.0);
  (* Long silence ages the interval estimate out of the troubled set. *)
  Alcotest.(check bool) "not troubled after silence" false
    (Rla.Rcv_state.is_troubled r ~now:200.0 ~min_interval:1.0 ~eta:20.0)

let test_rcv_state_acks () =
  let r = make_rcv () in
  Rla.Rcv_state.count_ack r;
  Rla.Rcv_state.count_ack r;
  Alcotest.(check int) "acks" 2 ((Rla.Rcv_state.capture r ~next_seq:0).s_acks)

(* ------------------------------------------------------------------ *)
(* Sender on small networks                                           *)
(* ------------------------------------------------------------------ *)

let star ?(seed = 1) ?(branch_mu = 500.0) ?(capacity = 20) ?(n = 3) () =
  let net = Net.Network.create ~seed () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves = List.init n (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  let fast =
    {
      Net.Link.bandwidth_bps = 100e6;
      prop_delay = 0.005;
      queue = Net.Queue_disc.Droptail;
      capacity = 100;
      phase_jitter = false;
    }
  in
  let branch =
    {
      Net.Link.bandwidth_bps = branch_mu *. 8000.0;
      prop_delay = 0.02;
      queue = Net.Queue_disc.Droptail;
      capacity;
      phase_jitter = true;
    }
  in
  ignore (Net.Network.duplex net s hub fast);
  List.iter (fun leaf -> ignore (Net.Network.duplex net hub leaf branch)) leaves;
  Net.Network.install_routes net;
  (net, s, leaves)

let test_sender_reaches_all_receivers () =
  let net, s, leaves = star () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 20.0;
  Alcotest.(check bool) "frontier advanced" true (Rla.Sender.max_reach_all rla > 500);
  List.iter
    (fun ep ->
      Alcotest.(check bool) "receiver kept up" true
        ((Rla.Receiver.capture ep).s_expected >= Rla.Sender.max_reach_all rla))
    (Rla.Sender.For_testing.receiver_endpoints rla)

let test_sender_no_loss_grows_window () =
  (* Huge branches: no congestion, no cuts, monotone frontier. *)
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 5.0;
  Alcotest.(check int) "no cuts" 0 (Rla.Sender.window_cuts rla);
  Alcotest.(check int) "no signals" 0 (Rla.Sender.congestion_signals rla);
  Alcotest.(check bool) "window opened" true (Rla.Sender.cwnd rla > 10.0)

let test_sender_multicast_efficiency () =
  (* The shared first hop must carry each data packet once, not once
     per receiver. *)
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 5.0;
  let hub_link = Option.get (Net.Network.link_between net s 1) in
  let delivered_on_shared = (Net.Link.stats hub_link).Net.Link.delivered in
  let frontier = Rla.Sender.max_reach_all rla in
  Alcotest.(check bool)
    (Printf.sprintf "shared-hop packets %d ~ frontier %d" delivered_on_shared frontier)
    true
    (delivered_on_shared < frontier + frontier / 2)

let test_sender_congestion_cuts_window () =
  let net, s, leaves = star ~branch_mu:100.0 ~capacity:10 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 60.0;
  Alcotest.(check bool) "signals detected" true
    (Rla.Sender.congestion_signals rla > 0);
  Alcotest.(check bool) "cuts happened" true (Rla.Sender.window_cuts rla > 0);
  Alcotest.(check bool) "retransmissions happened" true
    ((Rla.Sender.capture rla).Rla.Sender.s_rexmits_multicast + (Rla.Sender.capture rla).Rla.Sender.s_rexmits_unicast > 0)

let test_sender_randomized_cut_rate () =
  (* Cuts (excluding timeouts) should be roughly signals/n — the random
     listening core property. *)
  let n = 3 in
  let net, s, leaves = star ~branch_mu:150.0 ~n () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 200.0;
  let signals = Rla.Sender.congestion_signals rla in
  let cuts = Rla.Sender.window_cuts rla - Rla.Sender.timeouts rla in
  Alcotest.(check bool) "enough signals to judge" true (signals > 60);
  let expected = float_of_int signals /. float_of_int n in
  let actual = float_of_int cuts in
  Alcotest.(check bool)
    (Printf.sprintf "cuts %d vs expected %.0f (signals %d)" cuts expected signals)
    true
    (actual > 0.5 *. expected && actual < 2.0 *. expected)

let test_sender_min_last_ack_coherent () =
  let net, s, leaves = star () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 10.0;
  Alcotest.(check bool) "mla >= mra" true
    (Rla.Sender.For_testing.min_last_ack rla >= Rla.Sender.max_reach_all rla)

let test_sender_signals_per_receiver () =
  let net, s, leaves = star ~branch_mu:100.0 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 60.0;
  let per = Rla.Sender.signals_per_receiver rla in
  Alcotest.(check int) "one entry per receiver" (List.length leaves)
    (List.length per);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 per in
  Alcotest.(check int) "totals add up" (Rla.Sender.congestion_signals rla) total

let test_sender_snapshot_measurement_window () =
  let net, s, leaves = star ~branch_mu:100.0 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 30.0;
  Rla.Sender.reset_measurement rla;
  let snap0 = Rla.Sender.snapshot rla in
  Alcotest.(check int) "delivered restarts" 0 snap0.Rla.Sender.delivered;
  Alcotest.(check int) "signals restart" 0 snap0.Rla.Sender.congestion_signals;
  Net.Network.run_until net 60.0;
  let snap = Rla.Sender.snapshot rla in
  Alcotest.(check bool) "window counts only the tail" true
    (snap.Rla.Sender.delivered > 0
    && snap.Rla.Sender.delivered <= Rla.Sender.max_reach_all rla)

let test_sender_pthresh_restricted () =
  let net, s, leaves = star ~branch_mu:100.0 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 60.0;
  (* All three branches congest equally: each should be troubled and
     pthresh ~ 1/3. *)
  Alcotest.(check int) "all troubled" 3 (Rla.Sender.For_testing.num_trouble_rcvr rla);
  let p = Rla.Sender.For_testing.pthresh_for rla (List.hd leaves) in
  Alcotest.(check (float 1e-9)) "1/num_trouble" (1.0 /. 3.0) p

let test_sender_pthresh_unknown_receiver () =
  let net, s, leaves = star () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Alcotest.(check bool) "unknown receiver raises" true
    (try ignore (Rla.Sender.For_testing.pthresh_for rla 999); false
     with Invalid_argument _ -> true)

let test_sender_rexmit_multicast_vs_unicast () =
  (* With rexmit_thresh = 0 every retransmission goes by multicast;
     with a huge threshold everything goes by unicast. *)
  let run thresh =
    let net, s, leaves = star ~branch_mu:100.0 ~capacity:8 () in
    let params = { Rla.Params.default with Rla.Params.rexmit_thresh = thresh } in
    let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves ~params () in
    Net.Network.run_until net 60.0;
    ((Rla.Sender.capture rla).Rla.Sender.s_rexmits_multicast, (Rla.Sender.capture rla).Rla.Sender.s_rexmits_unicast)
  in
  let mc, uc = run 0 in
  Alcotest.(check bool) "thresh 0: multicast used" true (mc > 0);
  Alcotest.(check int) "thresh 0: no unicast" 0 uc;
  let mc, uc = run 1000 in
  Alcotest.(check bool) "huge thresh: unicast used" true (uc > 0);
  Alcotest.(check int) "huge thresh: no multicast" 0 mc

let test_sender_forced_cut_only_mechanism () =
  (* Disabling randomized cuts entirely is impossible, but we can check
     forced cuts stay rare under normal parameters (the paper observed
     zero). *)
  let net, s, leaves = star ~branch_mu:100.0 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 120.0;
  Alcotest.(check bool)
    (Printf.sprintf "forced cuts (%d) rare vs cuts (%d)"
       (Rla.Sender.forced_cuts rla) (Rla.Sender.window_cuts rla))
    true
    (Rla.Sender.forced_cuts rla * 4 <= Rla.Sender.window_cuts rla)

let test_sender_requires_receivers () =
  let net, s, _ = star () in
  Alcotest.(check bool) "no receivers rejected" true
    (try ignore (Rla.Sender.create ~net ~src:s ~receivers:[] ()); false
     with Invalid_argument _ -> true)

let test_receiver_endpoint_rexmits () =
  let net, s, leaves = star ~branch_mu:100.0 ~capacity:8 () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 60.0;
  let total_rexmit_received =
    List.fold_left
      (fun acc ep -> acc + (Rla.Receiver.capture ep).s_rexmits_received)
      0
      (Rla.Sender.For_testing.receiver_endpoints rla)
  in
  Alcotest.(check bool) "receivers saw retransmissions" true
    (total_rexmit_received > 0)

(* A star with one crippled branch: the natural setting for the
   slow-receiver option. *)
let star_with_slow_branch ?(seed = 1) () =
  let net = Net.Network.create ~seed () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves = List.init 3 (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  let fast =
    {
      Net.Link.bandwidth_bps = 100e6;
      prop_delay = 0.005;
      queue = Net.Queue_disc.Droptail;
      capacity = 100;
      phase_jitter = false;
    }
  in
  ignore (Net.Network.duplex net s hub fast);
  List.iteri
    (fun i leaf ->
      let mu = if i = 0 then 20.0 else 500.0 in
      ignore
        (Net.Network.duplex net hub leaf
           {
             Net.Link.bandwidth_bps = mu *. 8000.0;
             prop_delay = 0.02;
             queue = Net.Queue_disc.Droptail;
             capacity = 20;
             phase_jitter = true;
           }))
    leaves;
  Net.Network.install_routes net;
  (net, s, leaves)

let test_drop_receiver_unblocks_session () =
  let net, s, leaves = star_with_slow_branch () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 60.0;
  let before = Rla.Sender.max_reach_all rla in
  (* The slow branch caps the session near 20 pkt/s. *)
  Alcotest.(check bool) "slow receiver caps the frontier" true
    (before < 60 * 40);
  Alcotest.(check bool) "drop succeeds" true
    (Rla.Sender.drop_receiver rla (List.hd leaves));
  Alcotest.(check int) "two active left" 2
    (List.length (Rla.Sender.active_receivers rla));
  Rla.Sender.reset_measurement rla;
  Net.Network.run_until net 120.0;
  let snap = Rla.Sender.snapshot rla in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.1f rose past the slow branch" snap.Rla.Sender.throughput)
    true
    (snap.Rla.Sender.throughput > 100.0)

let test_drop_receiver_guards () =
  let net, s, leaves = star_with_slow_branch () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 5.0;
  Alcotest.(check bool) "unknown address" false (Rla.Sender.drop_receiver rla 999);
  Alcotest.(check bool) "first drop" true
    (Rla.Sender.drop_receiver rla (List.nth leaves 0));
  Alcotest.(check bool) "re-drop is false" false
    (Rla.Sender.drop_receiver rla (List.nth leaves 0));
  Alcotest.(check bool) "second drop" true
    (Rla.Sender.drop_receiver rla (List.nth leaves 1));
  Alcotest.(check bool) "last receiver protected" true
    (try ignore (Rla.Sender.drop_receiver rla (List.nth leaves 2)); false
     with Invalid_argument _ -> true)

let test_drop_receiver_ignores_acks () =
  let net, s, leaves = star_with_slow_branch () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 20.0;
  ignore (Rla.Sender.drop_receiver rla (List.hd leaves));
  Net.Network.run_until net 40.0;
  (* min_last_ack now reflects only the active receivers, so it can
     exceed what the dropped receiver has acknowledged. *)
  Alcotest.(check bool) "frontier not gated by dropped receiver" true
    (Rla.Sender.For_testing.min_last_ack rla >= Rla.Sender.max_reach_all rla)

let test_dropped_receiver_gets_no_rexmits () =
  (* Satellite regression: once dropped, a receiver must stop drawing
     retransmissions — its pending retransmit state must not keep
     feeding decisions.  With [rexmit_thresh] = 2 and 3 receivers, the
     lone slow requester always gets unicast retransmissions while
     active, and after the drop no target can exceed the threshold, so
     any retransmission reaching the dropped endpoint is a bug. *)
  let net, s, leaves = star_with_slow_branch () in
  let params = { Rla.Params.default with Rla.Params.rexmit_thresh = 2 } in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves ~params () in
  Net.Network.run_until net 30.0;
  let slow_endpoint =
    List.find
      (fun ep -> Rla.Receiver.For_testing.node_id ep = List.hd leaves)
      (Rla.Sender.For_testing.receiver_endpoints rla)
  in
  Alcotest.(check bool) "slow receiver saw unicast rexmits while active" true
    ((Rla.Receiver.capture slow_endpoint).s_rexmits_received > 0);
  ignore (Rla.Sender.drop_receiver rla (List.hd leaves));
  (* Let retransmissions already in flight land before baselining. *)
  Net.Network.run_until net 32.0;
  let baseline = (Rla.Receiver.capture slow_endpoint).s_rexmits_received in
  Net.Network.run_until net 90.0;
  Alcotest.(check int) "no retransmissions after the drop" baseline
    ((Rla.Receiver.capture slow_endpoint).s_rexmits_received);
  Alcotest.(check bool) "session kept retransmitting to the others" true
    ((Rla.Sender.capture rla).Rla.Sender.s_rexmits_unicast + (Rla.Sender.capture rla).Rla.Sender.s_rexmits_multicast > 0)

let test_add_receiver_guards () =
  let net, s, leaves = star_with_slow_branch () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  Net.Network.run_until net 5.0;
  Alcotest.(check bool) "active member rejected" false
    (Rla.Sender.add_receiver rla (List.hd leaves));
  Alcotest.(check bool) "unknown address raises" true
    (try ignore (Rla.Sender.add_receiver rla 999); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "source raises" true
    (try ignore (Rla.Sender.add_receiver rla s); false
     with Invalid_argument _ -> true)

let test_join_after_drop_same_address () =
  let net, s, leaves = star_with_slow_branch () in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  let victim = List.hd leaves in
  Net.Network.run_until net 20.0;
  ignore (Rla.Sender.drop_receiver rla victim);
  Net.Network.run_until net 30.0;
  Alcotest.(check bool) "re-join succeeds" true
    (Rla.Sender.add_receiver rla victim);
  Alcotest.(check int) "three active again" 3
    (List.length (Rla.Sender.active_receivers rla));
  Alcotest.(check int) "slot reused, not duplicated" 3
    (List.length (Rla.Sender.capture rla).Rla.Sender.s_rcvrs);
  let before = Rla.Sender.max_reach_all rla in
  Net.Network.run_until net 60.0;
  (* The re-joined receiver acknowledges from the join-time frontier,
     so the acked-by-all window keeps advancing. *)
  Alcotest.(check bool) "frontier advances with the rejoined member" true
    (Rla.Sender.max_reach_all rla > before);
  Alcotest.(check bool) "re-join while active rejected" false
    (Rla.Sender.add_receiver rla victim)

let test_pthresh_tracks_membership () =
  (* With [All_receivers] counting, pthresh is exactly 1/n_active and
     must follow every membership change. *)
  let net, s, leaves = star_with_slow_branch () in
  let params =
    { Rla.Params.default with Rla.Params.trouble_counting = Rla.Params.All_receivers }
  in
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves ~params () in
  let probe = List.nth leaves 2 in
  Net.Network.run_until net 5.0;
  Alcotest.(check (float 1e-9)) "1/3 initially" (1.0 /. 3.0)
    (Rla.Sender.For_testing.pthresh_for rla probe);
  ignore (Rla.Sender.drop_receiver rla (List.hd leaves));
  Alcotest.(check (float 1e-9)) "1/2 after a leave" 0.5
    (Rla.Sender.For_testing.pthresh_for rla probe);
  Alcotest.(check int) "num_trouble follows" 2 (Rla.Sender.For_testing.num_trouble_rcvr rla);
  Net.Network.run_until net 10.0;
  ignore (Rla.Sender.add_receiver rla (List.hd leaves));
  Alcotest.(check (float 1e-9)) "1/3 after the rejoin" (1.0 /. 3.0)
    (Rla.Sender.For_testing.pthresh_for rla probe);
  ignore (Rla.Sender.drop_receiver rla (List.nth leaves 1));
  ignore (Rla.Sender.drop_receiver rla (List.nth leaves 2));
  Alcotest.(check (float 1e-9)) "1/1 at a single receiver" 1.0
    (Rla.Sender.For_testing.pthresh_for rla probe)

let test_restore_rebuilds_address_index () =
  (* The sender's address index is derived state: a restore must
     rebuild it from the restored membership, so a receiver dropped
     before the capture stays dropped in the rebuilt session. *)
  let build () =
    let net, s, leaves = star_with_slow_branch () in
    (net, s, leaves, Rla.Sender.create ~net ~src:s ~receivers:leaves ())
  in
  let net1, _, leaves, rla1 = build () in
  let victim = List.nth leaves 0 and live = List.nth leaves 1 in
  Net.Network.run_until net1 10.0;
  ignore (Rla.Sender.drop_receiver rla1 victim);
  Net.Network.run_until net1 15.0;
  let sched_st = Sim.Scheduler.capture (Net.Network.scheduler net1) in
  let net_st = Net.Network.capture net1 in
  let rla_st = Rla.Sender.capture rla1 in
  let net2, s, _, rla2 = build () in
  Alcotest.(check int) "fresh build dispatches to the victim" 0
    (Rla.Sender.For_testing.active_slot rla2 victim);
  Sim.Scheduler.restore (Net.Network.scheduler net2) sched_st;
  Net.Network.restore net2 net_st;
  Rla.Sender.restore rla2 rla_st;
  Alcotest.(check int) "dropped address not dispatched" (-1)
    (Rla.Sender.For_testing.active_slot rla2 victim);
  Alcotest.(check int) "live address keeps its slot" 1
    (Rla.Sender.For_testing.active_slot rla2 live);
  let acks () =
    List.map
      (fun r -> r.Rla.Rcv_state.s_acks)
      (Rla.Sender.capture rla2).Rla.Sender.s_rcvrs
  in
  let deliver_ack rcvr =
    Net.Node.receive (Net.Network.node net2 s)
      (Net.Network.make_packet net2 ~flow:(Rla.Sender.flow rla2) ~src:rcvr
         ~dst:(Net.Packet.Unicast s) ~size:Rla.Wire.ack_size
         ~payload:
           (Rla.Wire.Rla_ack
              {
                rcvr;
                cum_ack = 0;
                blocks = [];
                echo = Net.Network.now net2;
                ece = false;
              }))
  in
  let before = acks () in
  deliver_ack victim;
  Alcotest.(check (list int)) "ack from the dropped address ignored" before
    (acks ());
  deliver_ack live;
  Alcotest.(check (list int)) "ack from a live receiver processed"
    (List.mapi (fun i n -> if i = 1 then n + 1 else n) before)
    (acks ());
  Alcotest.(check bool) "unknown addresses are never dispatched" true
    (Rla.Sender.For_testing.active_slot rla2 999 = -1 && Rla.Sender.For_testing.active_slot rla2 (-1) = -1)

(* Recorded before the sender stopped rescanning every pending
   retransmission on every ack.  Here decisions really do wait on the
   far receiver and become ready on its acknowledgments, so re-deciding
   too few pending packets (or too many, in another order) changes the
   captured sender state. *)
let test_distant_receiver_golden () =
  let rla = Golden_run.distant_receiver_run () in
  let state =
    Ckpt.Codec.payload
      (Ckpt.Codec.section "rla" Ckpt.State.rla_sender (Rla.Sender.capture rla))
  in
  Alcotest.(check int) "multicast retransmissions" 115
    ((Rla.Sender.capture rla).Rla.Sender.s_rexmits_multicast);
  Alcotest.(check int) "timeouts" 1 (Rla.Sender.timeouts rla);
  Alcotest.(check int) "delivered to all" 3631 (Rla.Sender.max_reach_all rla);
  Alcotest.(check string) "captured sender state digest"
    "af64312be00953433512d86e970c4ff7"
    (Digest.to_hex (Digest.string state))

let test_duplicate_receivers_rejected () =
  let net, s, leaves = star () in
  Alcotest.(check bool) "duplicate address raises" true
    (try
       ignore
         (Rla.Sender.create ~net ~src:s ~receivers:(List.hd leaves :: leaves) ());
       false
     with Invalid_argument _ -> true)

let test_sender_deterministic_replay () =
  let run () =
    let net, s, leaves = star ~seed:33 ~branch_mu:120.0 () in
    let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
    Net.Network.run_until net 50.0;
    ( Rla.Sender.max_reach_all rla,
      Rla.Sender.congestion_signals rla,
      Rla.Sender.window_cuts rla )
  in
  Alcotest.(check bool) "same seed, same run" true (run () = run ())

let () =
  Alcotest.run "rla"
    [
      ( "params",
        [
          Alcotest.test_case "defaults" `Quick test_params_defaults;
          Alcotest.test_case "generalized" `Quick test_params_generalized;
        ] );
      ( "fairness",
        [
          Alcotest.test_case "share" `Quick test_fairness_share;
          Alcotest.test_case "soft bottleneck" `Quick test_fairness_soft_bottleneck;
          Alcotest.test_case "soft vs hard" `Quick test_fairness_soft_vs_hard;
          Alcotest.test_case "empty" `Quick test_fairness_empty;
          Alcotest.test_case "theorem bounds" `Quick test_fairness_bounds;
          Alcotest.test_case "fairness check" `Quick test_fairness_check;
          Alcotest.test_case "zero tcp" `Quick test_fairness_ratio_zero_tcp;
          Alcotest.test_case "soft bottleneck tie" `Quick
            test_fairness_soft_bottleneck_tie;
          Alcotest.test_case "bounds n=1" `Quick
            test_fairness_bounds_single_receiver;
        ] );
      ( "rcv_state",
        [
          Alcotest.test_case "initial" `Quick test_rcv_state_initial;
          Alcotest.test_case "srtt" `Quick test_rcv_state_srtt;
          Alcotest.test_case "signal grouping" `Quick test_rcv_state_signal_grouping;
          Alcotest.test_case "grouping disabled" `Quick test_rcv_state_grouping_disabled;
          Alcotest.test_case "interval tracking" `Quick test_rcv_state_interval_tracking;
          Alcotest.test_case "aging" `Quick test_rcv_state_aging;
          Alcotest.test_case "acks" `Quick test_rcv_state_acks;
        ] );
      ( "sender",
        [
          Alcotest.test_case "reaches all receivers" `Quick
            test_sender_reaches_all_receivers;
          Alcotest.test_case "no loss grows window" `Quick
            test_sender_no_loss_grows_window;
          Alcotest.test_case "multicast efficiency" `Quick
            test_sender_multicast_efficiency;
          Alcotest.test_case "congestion cuts" `Quick test_sender_congestion_cuts_window;
          Alcotest.test_case "randomized cut rate" `Slow test_sender_randomized_cut_rate;
          Alcotest.test_case "min_last_ack coherent" `Quick
            test_sender_min_last_ack_coherent;
          Alcotest.test_case "signals per receiver" `Quick
            test_sender_signals_per_receiver;
          Alcotest.test_case "measurement window" `Quick
            test_sender_snapshot_measurement_window;
          Alcotest.test_case "pthresh restricted" `Quick test_sender_pthresh_restricted;
          Alcotest.test_case "pthresh unknown" `Quick test_sender_pthresh_unknown_receiver;
          Alcotest.test_case "rexmit multicast vs unicast" `Slow
            test_sender_rexmit_multicast_vs_unicast;
          Alcotest.test_case "forced cuts rare" `Slow
            test_sender_forced_cut_only_mechanism;
          Alcotest.test_case "requires receivers" `Quick test_sender_requires_receivers;
          Alcotest.test_case "endpoint rexmits" `Quick test_receiver_endpoint_rexmits;
          Alcotest.test_case "deterministic replay" `Quick
            test_sender_deterministic_replay;
          Alcotest.test_case "duplicate receivers rejected" `Quick
            test_duplicate_receivers_rejected;
          Alcotest.test_case "distant receiver golden" `Quick
            test_distant_receiver_golden;
        ] );
      ( "drop_receiver",
        [
          Alcotest.test_case "unblocks session" `Slow
            test_drop_receiver_unblocks_session;
          Alcotest.test_case "guards" `Quick test_drop_receiver_guards;
          Alcotest.test_case "ignores dropped acks" `Quick
            test_drop_receiver_ignores_acks;
          Alcotest.test_case "no rexmits to dropped" `Slow
            test_dropped_receiver_gets_no_rexmits;
        ] );
      ( "membership",
        [
          Alcotest.test_case "add guards" `Quick test_add_receiver_guards;
          Alcotest.test_case "join after drop" `Slow
            test_join_after_drop_same_address;
          Alcotest.test_case "pthresh tracks membership" `Quick
            test_pthresh_tracks_membership;
          Alcotest.test_case "restore rebuilds the address index" `Quick
            test_restore_rebuilds_address_index;
        ] );
    ]
