(* Tests for the rate-based baselines: report receiver, paced sender,
   its LTRC / MBFC / random-listening policies and CBR configuration. *)

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
      phase_jitter = false;
    }
  in
  ignore (Net.Network.duplex net s hub fast);
  List.iter (fun leaf -> ignore (Net.Network.duplex net hub leaf branch)) leaves;
  Net.Network.install_routes net;
  (net, s, leaves)

(* ------------------------------------------------------------------ *)
(* Report receiver                                                    *)
(* ------------------------------------------------------------------ *)

let test_report_receiver_counts () =
  let net, s, leaves = star () in
  let flow = Net.Network.fresh_flow net in
  let leaf = List.hd leaves in
  let reports = ref [] in
  Net.Node.attach (Net.Network.node net s) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Baselines.Wire.Rate_report { received; expected; loss_rate; _ } ->
          reports := (received, expected, loss_rate) :: !reports
      | _ -> ());
  let rcv =
    Baselines.Report_receiver.create ~net ~node:leaf ~flow ~sender:s
      ~period:1.0
  in
  (* Deliver seqs 0..9 with 2 and 5 missing. *)
  List.iter
    (fun seq ->
      Net.Network.send net
        (Net.Network.make_packet net ~flow ~src:s
           ~dst:(Net.Packet.Unicast leaf) ~size:1000
           ~payload:(Baselines.Wire.Rate_data { seq; sent_at = 0.0 })))
    [ 0; 1; 3; 4; 6; 7; 8; 9 ];
  Net.Network.run_until net 3.0;
  Alcotest.(check int) "received total" 8
    (Baselines.Report_receiver.For_testing.received_total rcv);
  match List.rev !reports with
  | (received, expected, loss_rate) :: _ ->
      (* Highest seq seen is 9; span is 0..9 = 9 expected after the
         first packet establishes the base. *)
      Alcotest.(check bool) "loss rate positive" true (loss_rate > 0.0);
      Alcotest.(check bool) "received <= expected" true (received <= expected)
  | [] -> Alcotest.fail "no report emitted"

let test_report_receiver_idle_reports_zero () =
  let net, s, leaves = star () in
  let flow = Net.Network.fresh_flow net in
  let rcv =
    Baselines.Report_receiver.create ~net ~node:(List.hd leaves) ~flow
      ~sender:s ~period:0.5
  in
  Net.Network.run_until net 3.0;
  Alcotest.(check (float 1e-9)) "idle loss rate" 0.0
    (Baselines.Report_receiver.For_testing.last_loss_rate rcv)

let test_report_receiver_bad_period () =
  let net, s, leaves = star () in
  let flow = Net.Network.fresh_flow net in
  Alcotest.(check bool) "bad period raises" true
    (try
       ignore
         (Baselines.Report_receiver.create ~net ~node:(List.hd leaves) ~flow
            ~sender:s ~period:0.0);
       false
     with Invalid_argument _ -> true)

let cbr_config rate =
  {
    (Baselines.Rate_sender.default_config Baselines.Rate_sender.Fixed) with
    initial_rate = rate;
    min_rate = rate;
    max_rate = rate;
  }

(* ------------------------------------------------------------------ *)
(* CBR / pacing                                                       *)
(* ------------------------------------------------------------------ *)

let test_cbr_rate_fixed () =
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let cbr =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (cbr_config 50.0)
  in
  Net.Network.run_until net 20.0;
  Alcotest.(check (float 1e-9)) "rate unchanged" 50.0
    (Baselines.Rate_sender.For_testing.rate cbr);
  Alcotest.(check int) "no cuts" 0 (Baselines.Rate_sender.For_testing.cuts cbr);
  (* ~50 pkt/s for 20 s. *)
  let sent = Baselines.Rate_sender.For_testing.sent cbr in
  Alcotest.(check bool)
    (Printf.sprintf "sent %d near 1000" sent)
    true
    (sent > 950 && sent < 1050)

let test_cbr_delivery_all_receivers () =
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let cbr =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (cbr_config 100.0)
  in
  Net.Network.run_until net 10.0;
  List.iter
    (fun ep ->
      Alcotest.(check bool) "receiver got most packets" true
        (Baselines.Report_receiver.For_testing.received_total ep
        > (Baselines.Rate_sender.For_testing.sent cbr * 9 / 10)))
    (Baselines.Rate_sender.For_testing.endpoints cbr)

(* ------------------------------------------------------------------ *)
(* LTRC                                                               *)
(* ------------------------------------------------------------------ *)

let test_ltrc_increases_without_loss () =
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let ltrc =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.ltrc)
  in
  let r0 = Baselines.Rate_sender.For_testing.rate ltrc in
  Net.Network.run_until net 10.0;
  Alcotest.(check bool) "rate increased" true
    (Baselines.Rate_sender.For_testing.rate ltrc > r0);
  Alcotest.(check int) "no cuts" 0 (Baselines.Rate_sender.For_testing.cuts ltrc)

let test_ltrc_cuts_on_loss () =
  let net, s, leaves = star ~branch_mu:50.0 ~capacity:5 () in
  let ltrc =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.ltrc)
  in
  Net.Network.run_until net 60.0;
  Alcotest.(check bool) "cuts happened" true (Baselines.Rate_sender.For_testing.cuts ltrc > 0)

let test_ltrc_refractory_limits_cut_rate () =
  (* With a 1 s refractory period there can be at most ~T cuts in T
     seconds. *)
  let net, s, leaves = star ~branch_mu:20.0 ~capacity:3 () in
  let ltrc =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.ltrc)
  in
  Net.Network.run_until net 30.0;
  Alcotest.(check bool)
    (Printf.sprintf "cuts %d bounded by refractory" (Baselines.Rate_sender.For_testing.cuts ltrc))
    true
    (Baselines.Rate_sender.For_testing.cuts ltrc <= 31)

let test_rate_floor_respected () =
  let net, s, leaves = star ~branch_mu:20.0 ~capacity:3 () in
  let ltrc =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.ltrc)
  in
  Net.Network.run_until net 120.0;
  Alcotest.(check bool) "rate never below min" true
    (Baselines.Rate_sender.For_testing.rate ltrc >= 1.0)

(* ------------------------------------------------------------------ *)
(* MBFC                                                               *)
(* ------------------------------------------------------------------ *)

let test_mbfc_needs_population () =
  (* Only one of three receivers is congested: with population
     threshold 0.25, 1/3 > 0.25 so MBFC does react; with threshold 0.5
     it must not. *)
  let build pop_thresh =
    let net = Net.Network.create ~seed:1 () in
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
        let mu = if i = 0 then 30.0 else 10_000.0 in
        ignore
          (Net.Network.duplex net hub leaf
             {
               Net.Link.bandwidth_bps = mu *. 8000.0;
               prop_delay = 0.02;
               queue = Net.Queue_disc.Droptail;
               capacity = 5;
               phase_jitter = false;
             }))
      leaves;
    Net.Network.install_routes net;
    let policy =
      match Baselines.Rate_sender.mbfc with
      | Baselines.Rate_sender.Mbfc p ->
          Baselines.Rate_sender.Mbfc { p with population_threshold = pop_thresh }
      | p -> p
    in
    let sender =
      Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
        (Baselines.Rate_sender.default_config policy)
    in
    Net.Network.run_until net 60.0;
    Baselines.Rate_sender.For_testing.cuts sender
  in
  Alcotest.(check bool) "low threshold reacts" true (build 0.25 > 0);
  Alcotest.(check int) "high threshold ignores the minority" 0 (build 0.5)

let test_mbfc_cuts_when_all_congested () =
  let net, s, leaves = star ~branch_mu:30.0 ~capacity:5 () in
  let mbfc =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.mbfc)
  in
  Net.Network.run_until net 60.0;
  Alcotest.(check bool) "cuts" true (Baselines.Rate_sender.For_testing.cuts mbfc > 0)

(* ------------------------------------------------------------------ *)
(* Rate-based random listening                                        *)
(* ------------------------------------------------------------------ *)

let test_rl_rate_grows_without_loss () =
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let sender =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.random_listening)
  in
  let r0 = Baselines.Rate_sender.For_testing.rate sender in
  Net.Network.run_until net 10.0;
  Alcotest.(check bool) "rate increased" true
    (Baselines.Rate_sender.For_testing.rate sender > r0);
  Alcotest.(check int) "no cuts" 0 (Baselines.Rate_sender.For_testing.cuts sender)

let test_rl_rate_cuts_under_loss () =
  let net, s, leaves = star ~branch_mu:50.0 ~capacity:5 () in
  let sender =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.random_listening)
  in
  Net.Network.run_until net 90.0;
  Alcotest.(check bool) "cuts happened" true
    (Baselines.Rate_sender.For_testing.cuts sender > 0)

let test_rl_rate_cuts_less_than_ltrc () =
  (* Random listening reacts to ~1/n of the congested reports; with all
     three receivers equally congested it should cut no more often than
     LTRC, which reacts to every one. *)
  let run policy =
    let net, s, leaves = star ~seed:5 ~branch_mu:40.0 ~capacity:5 () in
    let sender =
      Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
        (Baselines.Rate_sender.default_config policy)
    in
    Net.Network.run_until net 120.0;
    Baselines.Rate_sender.For_testing.cuts sender
  in
  let rl = run Baselines.Rate_sender.random_listening in
  let ltrc = run Baselines.Rate_sender.ltrc in
  Alcotest.(check bool)
    (Printf.sprintf "rl cuts %d <= ltrc cuts %d + slack" rl ltrc)
    true
    (rl <= ltrc + 5)

(* ------------------------------------------------------------------ *)
(* Config validation                                                  *)
(* ------------------------------------------------------------------ *)

let test_rate_sender_validation () =
  let net, s, leaves = star () in
  Alcotest.(check bool) "no receivers" true
    (try
       ignore
         (Baselines.Rate_sender.create ~net ~src:s ~receivers:[]
            (Baselines.Rate_sender.default_config Baselines.Rate_sender.Fixed));
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "bad rate" true
    (try
       ignore
         (Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
            {
              (Baselines.Rate_sender.default_config Baselines.Rate_sender.Fixed) with
              Baselines.Rate_sender.initial_rate = 0.0;
            });
       false
     with Invalid_argument _ -> true)

let test_policy_constructors () =
  let check_float = Alcotest.(check (float 1e-12)) in
  (match Baselines.Rate_sender.ltrc with
  | Baselines.Rate_sender.Ltrc { loss_threshold; ewma_weight; refractory } ->
      check_float "ltrc loss threshold" 0.02 loss_threshold;
      check_float "ltrc ewma weight" 0.25 ewma_weight;
      check_float "ltrc refractory" 1.0 refractory
  | _ -> Alcotest.fail "ltrc must be an Ltrc policy");
  (match Baselines.Rate_sender.mbfc with
  | Baselines.Rate_sender.Mbfc
      { loss_threshold; population_threshold; refractory } ->
      check_float "mbfc loss threshold" 0.02 loss_threshold;
      check_float "mbfc population threshold" 0.25 population_threshold;
      check_float "mbfc refractory" 1.0 refractory
  | _ -> Alcotest.fail "mbfc must be an Mbfc policy");
  (match Baselines.Rate_sender.random_listening with
  | Baselines.Rate_sender.Random_listening { loss_threshold; refractory } ->
      check_float "rl loss threshold" 0.02 loss_threshold;
      check_float "rl refractory" 1.0 refractory
  | _ -> Alcotest.fail "random_listening must be a Random_listening policy");
  let cfg =
    Baselines.Rate_sender.default_config Baselines.Rate_sender.random_listening
  in
  Alcotest.(check bool) "default config keeps its policy" true
    (cfg.Baselines.Rate_sender.policy = Baselines.Rate_sender.random_listening);
  Alcotest.(check bool) "default config rates ordered" true
    (cfg.Baselines.Rate_sender.min_rate <= cfg.Baselines.Rate_sender.initial_rate
    && cfg.Baselines.Rate_sender.initial_rate
       <= cfg.Baselines.Rate_sender.max_rate)

let test_rate_sender_accessors () =
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let ltrc =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (Baselines.Rate_sender.default_config Baselines.Rate_sender.ltrc)
  in
  Net.Network.run_until net 10.0;
  Alcotest.(check int) "one endpoint per leaf" (List.length leaves)
    (List.length (Baselines.Rate_sender.For_testing.endpoints ltrc));
  Alcotest.(check bool) "packets sent" true (Baselines.Rate_sender.For_testing.sent ltrc > 0);
  Alcotest.(check bool) "rate within the configured bounds" true
    (Baselines.Rate_sender.For_testing.rate ltrc >= 1.0
    && Baselines.Rate_sender.For_testing.rate ltrc <= 1e5)

let test_measurement_reset () =
  let net, s, leaves = star ~branch_mu:10_000.0 () in
  let cbr =
    Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
      (cbr_config 100.0)
  in
  Net.Network.run_until net 5.0;
  Baselines.Rate_sender.reset_measurement cbr;
  Net.Network.run_until net 15.0;
  let rate = Baselines.Rate_sender.min_delivered_rate cbr in
  Alcotest.(check bool)
    (Printf.sprintf "measured goodput %.1f near 100" rate)
    true
    (rate > 90.0 && rate < 110.0)

let () =
  Alcotest.run "baselines"
    [
      ( "report_receiver",
        [
          Alcotest.test_case "counts and loss" `Quick test_report_receiver_counts;
          Alcotest.test_case "idle reports zero" `Quick
            test_report_receiver_idle_reports_zero;
          Alcotest.test_case "bad period" `Quick test_report_receiver_bad_period;
        ] );
      ( "cbr",
        [
          Alcotest.test_case "rate fixed" `Quick test_cbr_rate_fixed;
          Alcotest.test_case "delivers to all" `Quick test_cbr_delivery_all_receivers;
        ] );
      ( "ltrc",
        [
          Alcotest.test_case "increases without loss" `Quick
            test_ltrc_increases_without_loss;
          Alcotest.test_case "cuts on loss" `Quick test_ltrc_cuts_on_loss;
          Alcotest.test_case "refractory bound" `Quick
            test_ltrc_refractory_limits_cut_rate;
          Alcotest.test_case "rate floor" `Slow test_rate_floor_respected;
        ] );
      ( "mbfc",
        [
          Alcotest.test_case "population threshold" `Slow test_mbfc_needs_population;
          Alcotest.test_case "cuts when all congested" `Quick
            test_mbfc_cuts_when_all_congested;
        ] );
      ( "rl_rate",
        [
          Alcotest.test_case "grows without loss" `Quick
            test_rl_rate_grows_without_loss;
          Alcotest.test_case "cuts under loss" `Quick test_rl_rate_cuts_under_loss;
          Alcotest.test_case "cuts less than ltrc" `Slow
            test_rl_rate_cuts_less_than_ltrc;
        ] );
      ( "baselines",
        [
          Alcotest.test_case "rate sender accessors" `Quick
            test_rate_sender_accessors;
          Alcotest.test_case "policy constructors" `Quick
            test_policy_constructors;
        ] );
      ( "config",
        [
          Alcotest.test_case "validation" `Quick test_rate_sender_validation;
          Alcotest.test_case "measurement reset" `Quick test_measurement_reset;
        ] );
    ]
