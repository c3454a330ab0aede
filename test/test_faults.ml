(* Tests for the fault-injection subsystem: timeline construction and
   validation, spec-string parsing, seeded generation, the injector's
   link and membership semantics (including the last-receiver guard and
   observability counters), and the control property that the churn
   scenario without faults reproduces the sharing experiment
   bit-for-bit. *)

let check_float = Alcotest.(check (float 1e-9))

let link_config ?(bw = 8_000_000.0) () =
  {
    Net.Link.bandwidth_bps = bw;
    prop_delay = 0.01;
    queue = Net.Queue_disc.Droptail;
    capacity = 50;
    phase_jitter = false;
  }

(* ------------------------------------------------------------------ *)
(* Timeline                                                           *)
(* ------------------------------------------------------------------ *)

let test_timeline_scripted_sorts () =
  let t =
    Faults.Timeline.scripted
      [
        (5.0, Faults.Timeline.Receiver_leave 1);
        (1.0, Faults.Timeline.Receiver_join 2);
        (5.0, Faults.Timeline.Receiver_join 3);
      ]
  in
  Alcotest.(check int) "three entries" 3 (Faults.Timeline.length t);
  match Faults.Timeline.entries t with
  | [ a; b; c ] ->
      check_float "earliest first" 1.0 a.Faults.Timeline.time;
      (* Stable: the two t=5 events keep their script order. *)
      Alcotest.(check bool) "leave before join at the tie" true
        (b.Faults.Timeline.event = Faults.Timeline.Receiver_leave 1
        && c.Faults.Timeline.event = Faults.Timeline.Receiver_join 3)
  | _ -> Alcotest.fail "expected three entries"

let test_timeline_validation () =
  let rejects events =
    try
      ignore (Faults.Timeline.scripted events);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "negative time" true
    (rejects [ (-1.0, Faults.Timeline.Receiver_leave 1) ]);
  Alcotest.(check bool) "zero bandwidth" true
    (rejects [ (1.0, Faults.Timeline.Set_bandwidth ((0, 1), 0.0)) ]);
  Alcotest.(check bool) "negative delay" true
    (rejects [ (1.0, Faults.Timeline.Set_delay ((0, 1), -0.5)) ])

let test_spec_roundtrip () =
  let spec =
    "120:down:5-14; 150:up:5-14; 130:leave:20; 200:join:20; \
     140:tcpstart:1:15; 250:tcpstop:1; 160:bw:1-2:5e6; 170:delay:1-2:0.05"
  in
  match Faults.Timeline.of_spec spec with
  | Error e ->
      Alcotest.failf "parse failed: %s" (Faults.Timeline.parse_error_to_string e)
  | Ok t -> (
      Alcotest.(check int) "eight entries" 8 (Faults.Timeline.length t);
      match Faults.Timeline.of_spec (Faults.Timeline.to_spec t) with
      | Error e ->
          Alcotest.failf "round-trip failed: %s"
            (Faults.Timeline.parse_error_to_string e)
      | Ok t' ->
          Alcotest.(check bool) "round-trips" true
            (Faults.Timeline.entries t = Faults.Timeline.entries t'))

let test_spec_errors () =
  let fails s =
    match Faults.Timeline.of_spec s with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "empty" true (fails "");
  Alcotest.(check bool) "unknown event" true (fails "10:explode:1-2");
  Alcotest.(check bool) "bad link" true (fails "10:down:xy");
  Alcotest.(check bool) "negative time" true (fails "-3:leave:20");
  Alcotest.(check bool) "missing field" true (fails "10:tcpstart:1");
  Alcotest.(check bool) "zero bandwidth" true (fails "10:bw:1-2:0")

let test_spec_error_position () =
  match Faults.Timeline.of_spec "10:down:1-2; 20:explode:3; 30:up:1-2" with
  | Ok _ -> Alcotest.fail "expected a parse error"
  | Error e ->
      Alcotest.(check int) "entry index" 1 e.Faults.Timeline.pe_index;
      (* The second entry's text starts after "10:down:1-2; ". *)
      Alcotest.(check int) "byte offset" 13 e.Faults.Timeline.pe_offset;
      Alcotest.(check string) "entry text" "20:explode:3"
        e.Faults.Timeline.pe_entry;
      let contains ~sub s =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      let msg = Faults.Timeline.parse_error_to_string e in
      Alcotest.(check bool) "message cites 1-based entry 2" true
        (contains ~sub:"entry 2" msg && contains ~sub:"offset 13" msg)

(* qcheck: [of_spec] inverts [to_spec] for any scripted timeline whose
   floats survive %g formatting — times and delays are quarter-second
   multiples, bandwidths whole kbit/s, both exact in six significant
   digits. *)
let qcheck_spec_roundtrip =
  let gen_event =
    QCheck.Gen.(
      let addr = int_bound 99 in
      let link = pair addr addr in
      let flow = int_bound 9 in
      let quarter hi = map (fun k -> float_of_int k *. 0.25) (int_bound hi) in
      let bw = map (fun k -> float_of_int (k + 1) *. 1000.0) (int_bound 9999) in
      oneof
        [
          map (fun l -> Faults.Timeline.Link_down l) link;
          map (fun l -> Faults.Timeline.Link_up l) link;
          map (fun (l, b) -> Faults.Timeline.Set_bandwidth (l, b))
            (pair link bw);
          map (fun (l, d) -> Faults.Timeline.Set_delay (l, d))
            (pair link (quarter 40));
          map (fun a -> Faults.Timeline.Receiver_leave a) addr;
          map (fun a -> Faults.Timeline.Receiver_join a) addr;
          map (fun (id, dst) -> Faults.Timeline.Flow_start { id; dst })
            (pair flow addr);
          map (fun id -> Faults.Timeline.Flow_stop { id }) flow;
          map
            (fun (flow, (dst, seq)) ->
              Faults.Timeline.Rst_inject { flow; dst; seq })
            (pair flow (pair addr (int_bound 100_000)));
          map
            (fun (flow, (dst, seq)) ->
              Faults.Timeline.Data_inject { flow; dst; seq })
            (pair flow (pair addr (int_bound 100_000)));
        ])
  in
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 30)
        (pair (map (fun k -> float_of_int k *. 0.25) (int_bound 4000)) gen_event))
  in
  let print events =
    Faults.Timeline.to_spec (Faults.Timeline.scripted events)
  in
  QCheck.Test.make ~name:"of_spec inverts to_spec" ~count:500
    (QCheck.make ~print gen) (fun events ->
      let t = Faults.Timeline.scripted events in
      match Faults.Timeline.of_spec (Faults.Timeline.to_spec t) with
      | Error e ->
          QCheck.Test.fail_report (Faults.Timeline.parse_error_to_string e)
      | Ok t' -> Faults.Timeline.entries t' = Faults.Timeline.entries t)

let gen_params =
  {
    (Faults.Timeline.default_gen ~start:10.0 ~horizon:60.0) with
    Faults.Timeline.outage_links = [ (1, 2); (1, 3) ];
    outage_rate = 0.1;
    churn_receivers = [ 4; 5; 6 ];
    churn_rate = 0.1;
    flow_dsts = [ 4; 5 ];
    flow_rate = 0.05;
  }

let test_generate_deterministic () =
  let draw seed =
    Faults.Timeline.to_spec
      (Faults.Timeline.generate ~rng:(Sim.Rng.create seed) gen_params)
  in
  Alcotest.(check string) "same seed, same timeline" (draw 7) (draw 7);
  Alcotest.(check bool) "timeline is nonempty at these rates" true
    (String.length (draw 7) > 0);
  Alcotest.(check bool) "different seed, different timeline" true
    (draw 7 <> draw 8)

let test_generate_shape () =
  let t = Faults.Timeline.generate ~rng:(Sim.Rng.create 3) gen_params in
  let count p =
    List.length (List.filter p (Faults.Timeline.entries t))
  in
  let is_down e =
    match e.Faults.Timeline.event with
    | Faults.Timeline.Link_down _ -> true
    | _ -> false
  and is_up e =
    match e.Faults.Timeline.event with
    | Faults.Timeline.Link_up _ -> true
    | _ -> false
  and is_leave e =
    match e.Faults.Timeline.event with
    | Faults.Timeline.Receiver_leave _ -> true
    | _ -> false
  and is_join e =
    match e.Faults.Timeline.event with
    | Faults.Timeline.Receiver_join _ -> true
    | _ -> false
  in
  (* Every outage heals and every leave rejoins. *)
  Alcotest.(check int) "downs pair with ups" (count is_down) (count is_up);
  Alcotest.(check int) "leaves pair with joins" (count is_leave) (count is_join);
  List.iter
    (fun e ->
      if e.Faults.Timeline.time < 10.0 then
        Alcotest.failf "event before start: %g" e.Faults.Timeline.time)
    (Faults.Timeline.entries t);
  (* Down events land before the horizon (repairs may trail past it). *)
  List.iter
    (fun e ->
      if is_down e && e.Faults.Timeline.time >= 60.0 then
        Alcotest.failf "outage after horizon: %g" e.Faults.Timeline.time)
    (Faults.Timeline.entries t)

(* ------------------------------------------------------------------ *)
(* Injector: link faults                                              *)
(* ------------------------------------------------------------------ *)

(* Two nodes, one duplex link, a packet injected every 100 ms. *)
let two_node_flood () =
  let net = Net.Network.create ~seed:1 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore (Net.Network.duplex net a b (link_config ()));
  Net.Network.install_routes net;
  let arrivals = ref [] in
  Net.Node.attach (Net.Network.node net b) ~flow:0 (fun pkt ->
      arrivals := (pkt.Net.Packet.uid, Net.Network.now net) :: !arrivals);
  let sched = Net.Network.scheduler net in
  for i = 0 to 99 do
    ignore
      (Sim.Scheduler.schedule_at sched
         (0.1 *. float_of_int i)
         (fun () ->
           Net.Network.send net
             (Net.Network.make_packet net ~flow:0 ~src:a
                ~dst:(Net.Packet.Unicast b) ~size:1000 ~payload:Net.Packet.Raw)))
  done;
  (net, a, b, arrivals)

let test_injector_link_outage () =
  let net, a, b, arrivals = two_node_flood () in
  let timeline =
    Faults.Timeline.scripted
      [
        (3.0, Faults.Timeline.Link_down (a, b));
        (5.0, Faults.Timeline.Link_up (a, b));
      ]
  in
  let inj = Faults.Injector.install ~net timeline in
  Net.Network.run_until net 12.0;
  Alcotest.(check int) "both events applied" 2 (Faults.Injector.injected inj);
  Alcotest.(check int) "one outage" 1 (Faults.Injector.outages inj);
  Alcotest.(check int) "nothing skipped" 0 (Faults.Injector.skipped inj);
  check_float "two seconds of downtime" 2.0 (Faults.Injector.downtime inj);
  let link = Option.get (Net.Network.link_between net a b) in
  Alcotest.(check bool) "drops counted on the link" true
    ((Net.Link.stats link).Net.Link.dropped > 0);
  (* Traffic flows before the outage, stops during it, resumes after. *)
  let during, outside =
    List.partition (fun (_, t) -> t > 3.0 && t < 5.0) !arrivals
  in
  Alcotest.(check int) "silence during the outage" 0 (List.length during);
  Alcotest.(check bool) "deliveries resume after repair" true
    (List.exists (fun (_, t) -> t > 5.0) outside);
  Alcotest.(check bool) "deliveries before the outage" true
    (List.exists (fun (_, t) -> t < 3.0) outside)

let test_injector_redundant_and_unknown () =
  let net, a, b, _ = two_node_flood () in
  let timeline =
    Faults.Timeline.scripted
      [
        (1.0, Faults.Timeline.Link_up (a, b));
        (* already up *)
        (2.0, Faults.Timeline.Link_down (a, b));
        (2.5, Faults.Timeline.Link_down (a, b));
        (* already down *)
        (3.0, Faults.Timeline.Link_up (a, b));
        (4.0, Faults.Timeline.Link_down (7, 9));
        (* no such link *)
        (4.5, Faults.Timeline.Receiver_leave b);
        (4.6, Faults.Timeline.Receiver_join b);
        (4.7, Faults.Timeline.Flow_start { id = 1; dst = b });
        (4.8, Faults.Timeline.Flow_stop { id = 1 });
        (* the default null handlers refuse all four *)
      ]
  in
  let inj = Faults.Injector.install ~net timeline in
  Net.Network.run_until net 6.0;
  Alcotest.(check int) "all entries fired" 9 (Faults.Injector.injected inj);
  Alcotest.(check int) "one real outage" 1 (Faults.Injector.outages inj);
  Alcotest.(check int) "seven skipped" 7 (Faults.Injector.skipped inj);
  Alcotest.(check bool) "link healthy at the end" true
    (Net.Link.is_up (Option.get (Net.Network.link_between net a b)))

let test_injector_null_handlers () =
  let h = Faults.Injector.null_handlers in
  Alcotest.(check bool) "leave refused" false (h.on_receiver_leave 1);
  Alcotest.(check bool) "join refused" false (h.on_receiver_join 1);
  Alcotest.(check bool) "flow start refused" false (h.on_flow_start ~id:1 ~dst:2);
  Alcotest.(check bool) "flow stop refused" false (h.on_flow_stop ~id:1);
  Alcotest.(check int) "no members" 0 (h.membership ())

let test_injector_degradation () =
  let net, a, b, arrivals = two_node_flood () in
  let timeline =
    Faults.Timeline.scripted
      [
        (3.0, Faults.Timeline.Set_bandwidth ((a, b), 80_000.0));
        (6.0, Faults.Timeline.Set_delay ((a, b), 0.2));
      ]
  in
  ignore (Faults.Injector.install ~net timeline);
  Net.Network.run_until net 12.0;
  let link = Option.get (Net.Network.link_between net a b) in
  check_float "bandwidth applied" 80_000.0
    (Net.Link.config link).Net.Link.bandwidth_bps;
  check_float "delay applied" 0.2 (Net.Link.config link).Net.Link.prop_delay;
  (* 0.1 s service at the degraded rate still beats the 0.1 s arrival
     spacing, so everything is eventually delivered, in order. *)
  let uids = List.rev_map fst !arrivals in
  Alcotest.(check bool) "no reordering across reconfigurations" true
    (List.sort compare uids = uids)

(* ------------------------------------------------------------------ *)
(* Injector: membership churn over a live RLA session                 *)
(* ------------------------------------------------------------------ *)

let rla_star ?(seed = 1) () =
  let net = Net.Network.create ~seed () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves = List.init 3 (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  ignore (Net.Network.duplex net s hub (link_config ~bw:100e6 ()));
  List.iter
    (fun leaf -> ignore (Net.Network.duplex net hub leaf (link_config ())))
    leaves;
  Net.Network.install_routes net;
  (net, s, leaves)

let membership_handlers rla =
  {
    Faults.Injector.on_receiver_leave =
      (fun addr -> Rla.Sender.drop_receiver rla addr);
    on_receiver_join =
      (fun addr ->
        match Rla.Sender.add_receiver rla addr with
        | ok -> ok
        | exception Invalid_argument _ -> false);
    on_flow_start = (fun ~id:_ ~dst:_ -> false);
    on_flow_stop = (fun ~id:_ -> false);
    on_rst_inject = (fun ~flow:_ ~dst:_ ~seq:_ -> false);
    on_data_inject = (fun ~flow:_ ~dst:_ ~seq:_ -> false);
    membership = (fun () -> List.length (Rla.Sender.active_receivers rla));
  }

let test_injector_membership_churn () =
  let net, s, leaves = rla_star () in
  let registry = Obs.Registry.create () in
  Net.Network.set_registry net (Some registry);
  let rla = Rla.Sender.create ~net ~src:s ~receivers:leaves () in
  let r0 = List.nth leaves 0
  and r1 = List.nth leaves 1
  and r2 = List.nth leaves 2 in
  let timeline =
    Faults.Timeline.scripted
      [
        (2.0, Faults.Timeline.Receiver_leave r0);
        (3.0, Faults.Timeline.Receiver_leave r1);
        (* membership is 1 now: the guard must refuse this leave *)
        (4.0, Faults.Timeline.Receiver_leave r2);
        (5.0, Faults.Timeline.Receiver_join r0);
        (* duplicate join: skipped *)
        (6.0, Faults.Timeline.Receiver_join r0);
      ]
  in
  let inj =
    Faults.Injector.install ~net ~handlers:(membership_handlers rla) timeline
  in
  Net.Network.run_until net 10.0;
  Alcotest.(check int) "all entries fired" 5 (Faults.Injector.injected inj);
  Alcotest.(check int) "last-receiver leave and re-join skipped" 2
    (Faults.Injector.skipped inj);
  Alcotest.(check bool) "r2 survived" true
    (List.mem r2 (Rla.Sender.active_receivers rla));
  Alcotest.(check bool) "r0 is back" true
    (List.mem r0 (Rla.Sender.active_receivers rla));
  Alcotest.(check int) "two active members" 2
    (List.length (Rla.Sender.active_receivers rla));
  (* Observability: the injector published its counters and gauges. *)
  let counters = Obs.Registry.counters registry in
  Alcotest.(check int) "faults.injected counter" 5
    (List.assoc "faults.injected" counters);
  Alcotest.(check int) "faults.skipped counter" 2
    (List.assoc "faults.skipped" counters);
  Alcotest.(check int) "faults.outages counter" 0
    (List.assoc "faults.outages" counters);
  check_float "membership gauge" 2.0
    (List.assoc "faults.membership" (Obs.Registry.gauges registry));
  (* The session keeps making progress with the final membership. *)
  let before = Rla.Sender.max_reach_all rla in
  Net.Network.run_until net 20.0;
  Alcotest.(check bool) "frontier still advances" true
    (Rla.Sender.max_reach_all rla > before)

(* ------------------------------------------------------------------ *)
(* Churn scenario: control equivalence and default script             *)
(* ------------------------------------------------------------------ *)

let small_sharing =
  let base =
    Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
      ~case:(Experiments.Tree.case_of_index 3)
  in
  { base with Experiments.Sharing.duration = 20.0; warmup = 6.0; seed = 11 }

let test_churn_no_faults_matches_sharing () =
  (* With faults disabled the churn scenario must reproduce the plain
     sharing experiment bit-for-bit: same scheduler event count, same
     fairness numbers, same recorded series. *)
  let reg_a = Obs.Registry.create () in
  let net_a, plain =
    Experiments.Sharing.run_with_net ~registry:reg_a small_sharing
  in
  let reg_b = Obs.Registry.create () in
  let net_b, churned =
    Experiments.Churn.run_with_net ~registry:reg_b
      {
        Experiments.Churn.sharing = small_sharing;
        faults = Experiments.Churn.No_faults;
      }
  in
  let fired net = Sim.Scheduler.events_fired (Net.Network.scheduler net) in
  Alcotest.(check int) "same event count" (fired net_a) (fired net_b);
  Alcotest.(check bool) "same sharing result" true
    (plain = churned.Experiments.Churn.sharing);
  let dump reg =
    Runner.Json.to_string (Runner.Report.registry_json reg)
  in
  Alcotest.(check bool) "byte-identical registry dumps" true
    (dump reg_a = dump reg_b);
  (match churned.Experiments.Churn.epochs with
  | [ e ] ->
      check_float "single epoch covers the window" 6.0
        e.Experiments.Churn.t_start;
      check_float "ends at the horizon" 20.0 e.Experiments.Churn.t_end
  | l -> Alcotest.failf "expected one epoch, got %d" (List.length l));
  Alcotest.(check int) "no injections" 0 churned.Experiments.Churn.injected

let test_churn_default_script () =
  let result =
    Experiments.Churn.run
      {
        Experiments.Churn.sharing = small_sharing;
        faults = Experiments.Churn.Default_script;
      }
  in
  Alcotest.(check int) "six events injected" 6
    result.Experiments.Churn.injected;
  Alcotest.(check int) "one outage" 1 result.Experiments.Churn.outages;
  Alcotest.(check int) "nothing skipped" 0 result.Experiments.Churn.skipped;
  Alcotest.(check int) "one churned flow started" 1
    result.Experiments.Churn.flows_started;
  Alcotest.(check int) "and stopped" 1 result.Experiments.Churn.flows_stopped;
  Alcotest.(check bool) "positive downtime" true
    (result.Experiments.Churn.downtime > 0.0);
  Alcotest.(check int) "seven epochs" 7
    (List.length result.Experiments.Churn.epochs);
  (* Membership dips to 26 during the absence and recovers to 27. *)
  let n_active =
    List.map
      (fun e -> e.Experiments.Churn.n_active)
      result.Experiments.Churn.epochs
  in
  Alcotest.(check bool) "membership dips during the absence" true
    (List.mem 26 n_active);
  (match List.rev n_active with
  | last :: _ -> Alcotest.(check int) "membership recovers" 27 last
  | [] -> Alcotest.fail "no epochs");
  (* Epochs tile the measurement window. *)
  ignore
    (List.fold_left
       (fun prev e ->
         check_float "contiguous epochs" prev e.Experiments.Churn.t_start;
         e.Experiments.Churn.t_end)
       6.0 result.Experiments.Churn.epochs)

let test_churn_deterministic_replay () =
  let run () =
    let result =
      Experiments.Churn.run
        {
          Experiments.Churn.sharing = small_sharing;
          faults =
            Experiments.Churn.Generated
              {
                Experiments.Churn.gen_seed = 5;
                outage_rate = 0.05;
                churn_rate = 0.1;
                flow_rate = 0.05;
              };
        }
    in
    Runner.Json.to_string (Experiments.Churn.to_json result)
  in
  Alcotest.(check string) "same seed, byte-identical report" (run ()) (run ())

let () =
  Alcotest.run "faults"
    [
      ( "timeline",
        [
          Alcotest.test_case "scripted sorts stably" `Quick
            test_timeline_scripted_sorts;
          Alcotest.test_case "validation" `Quick test_timeline_validation;
          Alcotest.test_case "spec round-trip" `Quick test_spec_roundtrip;
          Alcotest.test_case "spec errors" `Quick test_spec_errors;
          Alcotest.test_case "spec error position" `Quick
            test_spec_error_position;
          QCheck_alcotest.to_alcotest qcheck_spec_roundtrip;
          Alcotest.test_case "generate deterministic" `Quick
            test_generate_deterministic;
          Alcotest.test_case "generate shape" `Quick test_generate_shape;
        ] );
      ( "injector",
        [
          Alcotest.test_case "link outage" `Quick test_injector_link_outage;
          Alcotest.test_case "redundant and unknown" `Quick
            test_injector_redundant_and_unknown;
          Alcotest.test_case "degradation" `Quick test_injector_degradation;
          Alcotest.test_case "membership churn" `Quick
            test_injector_membership_churn;
        ] );
      ( "faults",
        [
          Alcotest.test_case "injector null handlers" `Quick
            test_injector_null_handlers;
        ] );
      ( "churn",
        [
          Alcotest.test_case "no faults = sharing" `Slow
            test_churn_no_faults_matches_sharing;
          Alcotest.test_case "default script" `Slow test_churn_default_script;
          Alcotest.test_case "deterministic replay" `Slow
            test_churn_deterministic_replay;
        ] );
    ]
