(* Tests for the parallel-DES sharding stack: the topology generators
   (Net.Topo), the Kruskal partitioner (Par.Partition), the
   conservative barrier-round engine (Par.Engine) and the end-to-end
   sharded RLA scenario (Par.Scenario).

   The load-bearing property is byte-identity: every deterministic
   output of a sharded run (fairness table, merged registry JSON,
   merged trace CSV) must be byte-for-byte the same for any worker
   count, because the shard structure is fixed by the partition and
   cross-shard messages merge in an explicit (arrival, source shard,
   sequence) order that no domain interleaving can perturb. *)

let cfg ?(bw = 1.6e6) ?(queue = Net.Queue_disc.Droptail) ?(capacity = 20) delay
    =
  {
    Net.Link.bandwidth_bps = bw;
    prop_delay = delay;
    queue;
    capacity;
    phase_jitter = false;
  }

let test_cfgs = [| cfg 0.01; cfg 0.02; cfg 0.05 |]

(* ------------------------------------------------------------------ *)
(* Net.Topo generators                                                *)
(* ------------------------------------------------------------------ *)

let prop_kary_shape =
  QCheck.Test.make ~name:"kary trees have the closed-form shape" ~count:30
    QCheck.(pair (int_range 2 4) (int_range 0 3))
    (fun (fanout, depth) ->
      let t = Net.Topo.kary ~fanout ~depth ~configs:test_cfgs in
      let rec pow b e = if e = 0 then 1 else b * pow b (e - 1) in
      let nodes = (pow fanout (depth + 1) - 1) / (fanout - 1) in
      Net.Topo.node_count t = nodes
      && Net.Topo.edge_count t = nodes - 1
      && Topo_gen.connected t
      && List.for_all (fun e -> e.Net.Topo.u <> e.Net.Topo.v) t.Net.Topo.edges
      && (* every non-root node hangs off its level-order parent *)
      List.for_all
        (fun e -> e.Net.Topo.u = (e.Net.Topo.v - 1) / fanout)
        t.Net.Topo.edges)

let test_fat_tree_shape () =
  List.iter
    (fun k ->
      let t = Topo_gen.fat_tree ~k ~configs:test_cfgs in
      let nodes = (k * k / 4) + (k * k) + (k * k * k / 4) in
      let edges = 3 * k * k * k / 4 in
      Alcotest.(check int) "node count" nodes (Net.Topo.node_count t);
      Alcotest.(check int) "edge count" edges (Net.Topo.edge_count t);
      Alcotest.(check bool) "connected" true (Topo_gen.connected t);
      Alcotest.(check bool) "no self loops" true
        (List.for_all
           (fun e -> e.Net.Topo.u <> e.Net.Topo.v)
           t.Net.Topo.edges))
    [ 2; 4 ]

let prop_random_graph_sound =
  QCheck.Test.make ~name:"random graphs are connected, clean and seeded"
    ~count:50
    QCheck.(triple (int_range 1 1000) (int_range 2 30) (int_range 0 10))
    (fun (seed, n, extra) ->
      let t = Topo_gen.random_graph ~seed ~n ~extra ~configs:test_cfgs in
      let key e = (min e.Net.Topo.u e.Net.Topo.v, max e.Net.Topo.u e.Net.Topo.v) in
      let keys = List.map key t.Net.Topo.edges in
      Net.Topo.node_count t = n
      && Topo_gen.connected t
      && Net.Topo.edge_count t >= n - 1
      && Net.Topo.edge_count t <= n - 1 + extra
      && List.for_all (fun e -> e.Net.Topo.u <> e.Net.Topo.v) t.Net.Topo.edges
      && List.length (List.sort_uniq compare keys) = List.length keys
      && (* byte-level reproducibility from the seed *)
      Topo_gen.random_graph ~seed ~n ~extra ~configs:test_cfgs = t)

let test_of_edges_validation () =
  let reject name spec =
    Alcotest.(check bool) name true
      (try
         ignore (Topo_gen.of_edges ~n:3 spec);
         false
       with Invalid_argument _ -> true)
  in
  reject "self loop" [ (1, 1, cfg 0.01) ];
  reject "out of range" [ (0, 3, cfg 0.01) ];
  reject "duplicate (reversed)" [ (0, 1, cfg 0.01); (1, 0, cfg 0.02) ]

let test_tree_path () =
  (* fanout-2 depth-2: root 0, children 1 2, leaves 3 4 (under 1) and
     5 6 (under 2). *)
  let t = Net.Topo.kary ~fanout:2 ~depth:2 ~configs:test_cfgs in
  let parents = Net.Topo.bfs_parents t ~root:0 in
  let check_path name expect a b =
    Alcotest.(check (list int)) name expect (Net.Topo.tree_path ~parents a b)
  in
  check_path "across the root" [ 3; 1; 0; 2; 5 ] 3 5;
  check_path "siblings" [ 3; 1; 4 ] 3 4;
  check_path "root to leaf" [ 0; 2; 6 ] 0 6;
  check_path "self" [ 3 ] 3 3;
  Alcotest.(check (list int))
    "leaves ascending" [ 3; 4; 5; 6 ] (Net.Topo.leaves t)

(* ------------------------------------------------------------------ *)
(* Partitioner invariants                                             *)
(* ------------------------------------------------------------------ *)

let prop_partition_invariants =
  QCheck.Test.make ~name:"every node in exactly one shard; cut exact"
    ~count:50
    QCheck.(triple (int_range 1 1000) (int_range 2 30) (int_range 0 8))
    (fun (seed, n, extra) ->
      let t = Topo_gen.random_graph ~seed ~n ~extra ~configs:test_cfgs in
      let parts = 1 + (seed mod n) in
      let p = Net.Topo.node_count t |> fun _ -> Par.Partition.kruskal t ~parts in
      let owner = p.Par.Partition.owner in
      (* connected input: the requested count is achieved exactly *)
      p.Par.Partition.parts = parts
      && Array.length owner = n
      && Array.for_all (fun o -> o >= 0 && o < parts) owner
      && (* members arrays partition 0..n-1 and agree with owner *)
      List.sort_uniq compare
        (List.concat (Array.to_list p.Par.Partition.members))
      = List.init n (fun i -> i)
      && Array.for_all (fun b -> b)
           (Array.mapi
              (fun i ms -> List.for_all (fun v -> owner.(v) = i) ms)
              p.Par.Partition.members)
      && (* the cut is exactly the crossing edges, in topo edge order *)
      p.Par.Partition.cut
      = List.filter
          (fun e -> owner.(e.Net.Topo.u) <> owner.(e.Net.Topo.v))
          t.Net.Topo.edges)

let test_partition_cuts_slow_links () =
  (* kary fanout-4 depth-2 with slow root links (20 ms) and fast
     second-level links (5 ms): asking for fanout+1 parts must cut
     exactly the four root links — Kruskal merges cheap links first,
     so the cut that remains is the high-latency one we want crossing
     shards (it maximizes the lookahead). *)
  let t =
    Net.Topo.kary ~fanout:4 ~depth:2 ~configs:[| cfg 0.02; cfg 0.005 |]
  in
  let p = Par.Partition.kruskal t ~parts:5 in
  Alcotest.(check int) "five parts" 5 p.Par.Partition.parts;
  Alcotest.(check int) "four cut edges" 4 (List.length p.Par.Partition.cut);
  Alcotest.(check bool) "all cut edges are root links" true
    (List.for_all (fun e -> e.Net.Topo.u = 0) p.Par.Partition.cut);
  Alcotest.(check bool) "root is alone in its shard" true
    (p.Par.Partition.members.(0) = [ 0 ])

let test_partition_validation () =
  let t = Net.Topo.kary ~fanout:2 ~depth:1 ~configs:test_cfgs in
  List.iter
    (fun parts ->
      Alcotest.(check bool)
        (Printf.sprintf "parts=%d rejected" parts)
        true
        (try
           ignore (Par.Partition.kruskal t ~parts);
           false
         with Invalid_argument _ -> true))
    [ 0; 4 ]

(* ------------------------------------------------------------------ *)
(* Engine: lookahead edges                                            *)
(* ------------------------------------------------------------------ *)

let two_node_engine ~delay =
  let t = Topo_gen.of_edges ~n:2 [ (0, 1, cfg ~bw:8e6 delay) ] in
  let partition = Par.Partition.kruskal t ~parts:2 in
  Par.Engine.create ~topo:t ~partition ~seed:1 ()

let test_zero_delay_cut_rejected () =
  match two_node_engine ~delay:0.0 with
  | Error (Par.Engine.Zero_delay_cut { u; v }) ->
      Alcotest.(check (pair int int)) "offending edge" (0, 1) (u, v)
  | Ok _ -> Alcotest.fail "zero-delay cut accepted"

(* Send one 1000-byte packet (1 ms serialization at 8 Mb/s) across the
   0.1 s cut link at [send_at]; return (completed rounds when the
   packet reached node 1, arrival time). *)
let cross_shard_probe ~send_at =
  match two_node_engine ~delay:0.1 with
  | Error _ -> Alcotest.fail "positive-delay engine rejected"
  | Ok eng ->
      Par.Engine.install_toward eng ~parents:[| 1; 1 |] ~dest:1;
      let net0 = Par.Engine.shard_net eng 0 in
      let net1 = Par.Engine.shard_net eng 1 in
      let flow = Net.Network.fresh_flow net0 in
      let fired = ref None in
      Net.Node.attach (Net.Network.node net1 1) ~flow (fun _pkt ->
          fired := Some (Par.Engine.rounds eng, Net.Network.now net1));
      ignore
        (Sim.Scheduler.schedule_at
           (Net.Network.scheduler net0)
           send_at
           (fun () ->
             let pkt =
               Net.Network.make_packet net0 ~flow ~src:0
                 ~dst:(Net.Packet.Unicast 1) ~size:1000
                 ~payload:Net.Packet.Raw
             in
             Net.Network.send net0 pkt));
      Par.Engine.run eng ~until:0.4 ~workers:1;
      Alcotest.(check (float 0.0))
        "lookahead is the cut delay" 0.1 (Par.Engine.lookahead eng);
      match !fired with
      | None -> Alcotest.fail "packet never crossed the shard boundary"
      | Some x -> x

let test_lookahead_interior_round () =
  (* Sent at 0.05, serialized at 0.051, arrives 0.151: produced in
     round 1 (horizon 0.1), exchanged at the barrier, fired during
     round 2 — i.e. with exactly 1 completed round. *)
  let rounds, at = cross_shard_probe ~send_at:0.05 in
  Alcotest.(check int) "fired during the second round" 1 rounds;
  Alcotest.(check (float 1e-12)) "arrival stamp" 0.151 at

let test_lookahead_horizon_edge () =
  (* Sent at 0.099: serialization ends at exactly the first horizon
     (0.1, inclusive — still round 1) and the arrival lands at exactly
     the second horizon (0.2).  The horizon is inclusive on both
     counts, so the delivery fires during round 2, not round 3. *)
  let rounds, at = cross_shard_probe ~send_at:0.099 in
  Alcotest.(check int) "fired during the second round" 1 rounds;
  Alcotest.(check (float 0.0)) "arrival exactly on the horizon" 0.2 at

(* ------------------------------------------------------------------ *)
(* Scenario: cross-shard determinism                                  *)
(* ------------------------------------------------------------------ *)

let scenario_outputs config =
  match Par.Scenario.run config with
  | Error e -> Alcotest.fail (Par.Scenario.error_to_string e)
  | Ok r ->
      ( r.Par.Scenario.fairness_table,
        r.Par.Scenario.registry_json,
        r.Par.Scenario.trace_csv )

let random_scenario_config ~seed ~n ~parts ~workers =
  let topo = Topo_gen.random_graph ~seed ~n ~extra:3 ~configs:test_cfgs in
  let receivers =
    match List.filter (fun v -> v <> 0) (Net.Topo.leaves topo) with
    | [] -> [ n - 1 ]
    | ls -> ls
  in
  {
    Par.Scenario.topo;
    parts;
    src = 0;
    receivers;
    tcp_pairs = [];
    workers;
    duration = 2.0;
    warmup = 0.5;
    seed;
    rla_params = Rla.Params.default;
    with_registry = true;
  }

let prop_workers_invariant =
  QCheck.Test.make
    ~name:"trace CSV, registry JSON, fairness table byte-identical for \
           shards in {1,2,4,8} workers"
    ~count:3
    QCheck.(pair (int_range 1 1000) (int_range 6 12))
    (fun (seed, n) ->
      let parts = 2 + (seed mod 3) in
      let run workers =
        scenario_outputs (random_scenario_config ~seed ~n ~parts ~workers)
      in
      let reference = run 1 in
      List.for_all (fun w -> run w = reference) [ 2; 4; 8 ])

let figure6_config ~workers =
  (* The paper's figure-6 tree rebuilt as a Topo: fanout-3 depth-3,
     5 ms interior links, 100 ms bottleneck leaf links.  28 parts cuts
     exactly the 27 leaf links (each leaf becomes its own shard), so
     every receiver talks to the source across a shard boundary. *)
  let topo =
    Net.Topo.kary ~fanout:3 ~depth:3
      ~configs:[| cfg ~bw:100e6 0.005; cfg ~bw:100e6 0.005; cfg 0.1 |]
  in
  {
    Par.Scenario.topo;
    parts = 28;
    src = 0;
    receivers = Net.Topo.leaves topo;
    tcp_pairs = [ (0, 1) ];
    workers;
    duration = 6.0;
    warmup = 1.5;
    seed = 7;
    rla_params = Rla.Params.default;
    with_registry = true;
  }

let test_figure6_golden () =
  let sequential = scenario_outputs (figure6_config ~workers:1) in
  List.iter
    (fun workers ->
      let sharded = scenario_outputs (figure6_config ~workers) in
      let name part =
        Printf.sprintf "%s identical at %d workers" part workers
      in
      let (t1, r1, c1) = sequential and (t2, r2, c2) = sharded in
      Alcotest.(check string) (name "fairness table") t1 t2;
      Alcotest.(check string) (name "registry JSON") r1 r2;
      Alcotest.(check string) (name "trace CSV") c1 c2)
    [ 2; 8 ];
  (* and the sequential reference itself carries real content *)
  let table, registry, csv = sequential in
  Alcotest.(check bool) "28 shards in the table" true
    (let sub = "28 shards" in
     let rec find i =
       i + String.length sub <= String.length table
       && (String.sub table i (String.length sub) = sub || find (i + 1))
     in
     find 0);
  Alcotest.(check bool) "registry JSON has all shards" true
    (String.length registry > 1000);
  Alcotest.(check bool) "trace CSV has samples" true
    (String.length csv > 100)

(* Recorded before the sender's ack dispatch and retransmission
   decisions were made independent of the receiver count; the run has
   congestion signals and retransmissions in its window, so a change
   to either path that alters a single decision moves these values. *)
let test_sharded_sender_golden () =
  let r = Golden_run.sharded_run () in
  let rla = r.Par.Scenario.rla in
  Alcotest.(check bool) "window has congestion signals" true
    (rla.Rla.Sender.congestion_signals > 0);
  Alcotest.(check bool) "window has retransmissions" true
    (rla.Rla.Sender.rexmits > 0);
  Alcotest.(check int) "events fired" 199_864 r.Par.Scenario.events_fired;
  Alcotest.(check string) "fairness table digest"
    "f611b4ee615e13c2e08da34d6d468340"
    (Digest.to_hex (Digest.string r.Par.Scenario.fairness_table))

(* Recorded on the engine that kept outboxes as lists of records and
   sorted them per destination with an explicit comparator.  Seed 137
   cuts edges of all three delays (0.01, 0.02 and 0.05 s), so imports
   stay pending across barriers.  Cross-worker equality cannot catch a
   merge order that is wrong for every worker count; these values move
   if a batch is left unsorted or a pending import is overtaken.  Equal
   arrivals from different source shards do occur here, but their order
   reaches none of these outputs: reversing it changed no value on any
   random graph tried (8 to 30 nodes, 3 to 8 parts, 60 seeds each). *)
let test_merge_order_golden () =
  let config = random_scenario_config ~seed:137 ~n:10 ~parts:6 ~workers:1 in
  let cut =
    (Par.Partition.kruskal config.Par.Scenario.topo ~parts:6)
      .Par.Partition.cut
  in
  Alcotest.(check (list (float 0.0)))
    "cut delays" [ 0.01; 0.02; 0.05 ]
    (List.sort_uniq Float.compare
       (List.map (fun e -> e.Net.Topo.config.Net.Link.prop_delay) cut));
  match Par.Scenario.run config with
  | Error e -> Alcotest.fail (Par.Scenario.error_to_string e)
  | Ok r ->
      let digest s = Digest.to_hex (Digest.string s) in
      Alcotest.(check int) "events fired" 5_842 r.Par.Scenario.events_fired;
      Alcotest.(check string) "fairness table digest"
        "d23f5177e4c8988a484546d9c3a11902"
        (digest r.Par.Scenario.fairness_table);
      Alcotest.(check string) "registry JSON digest"
        "6f628f418f1991a0786219b453977088"
        (digest r.Par.Scenario.registry_json);
      Alcotest.(check string) "trace CSV digest"
        "4e003ca454769febd7862e1fd741f86d"
        (digest r.Par.Scenario.trace_csv)

let test_checkpoint_rejected () =
  match
    Par.Scenario.run
      ~checkpoint:(1.0, "/tmp/nope")
      (figure6_config ~workers:1)
  with
  | Error Par.Scenario.Checkpoint_unsupported -> ()
  | Error e ->
      Alcotest.fail ("wrong error: " ^ Par.Scenario.error_to_string e)
  | Ok _ -> Alcotest.fail "checkpointed sharded run accepted"

let test_cross_shard_tcp_rejected () =
  let topo = Topo_gen.of_edges ~n:2 [ (0, 1, cfg 0.1) ] in
  let config =
    {
      Par.Scenario.topo;
      parts = 2;
      src = 0;
      receivers = [ 1 ];
      tcp_pairs = [ (0, 1) ];
      workers = 1;
      duration = 1.0;
      warmup = 0.0;
      seed = 1;
      rla_params = Rla.Params.default;
      with_registry = false;
    }
  in
  match Par.Scenario.run config with
  | Error (Par.Scenario.Cross_shard_tcp (0, 1)) -> ()
  | Error e ->
      Alcotest.fail ("wrong error: " ^ Par.Scenario.error_to_string e)
  | Ok _ -> Alcotest.fail "cross-shard TCP accepted"

let test_bad_config_rejected () =
  let base = figure6_config ~workers:1 in
  let bad name config =
    match Par.Scenario.run config with
    | Error (Par.Scenario.Bad_config _) -> ()
    | Error e ->
        Alcotest.fail
          (name ^ ": wrong error: " ^ Par.Scenario.error_to_string e)
    | Ok _ -> Alcotest.fail (name ^ ": accepted")
  in
  bad "zero duration" { base with Par.Scenario.duration = 0.0 };
  bad "warmup past duration" { base with Par.Scenario.warmup = 7.0 };
  bad "no receivers" { base with Par.Scenario.receivers = [] };
  bad "src as receiver" { base with Par.Scenario.receivers = [ 0 ] };
  bad "zero workers" { base with Par.Scenario.workers = 0 }

let test_scenario_zero_delay_cut () =
  let topo = Topo_gen.of_edges ~n:2 [ (0, 1, cfg 0.0) ] in
  let config =
    { (figure6_config ~workers:1) with Par.Scenario.topo; parts = 2;
      receivers = [ 1 ]; tcp_pairs = [] }
  in
  match Par.Scenario.run config with
  | Error (Par.Scenario.Zero_delay_cut (0, 1)) -> ()
  | Error e ->
      Alcotest.fail ("wrong error: " ^ Par.Scenario.error_to_string e)
  | Ok _ -> Alcotest.fail "zero-delay cut accepted"

(* ------------------------------------------------------------------ *)
(* Runner.Pool wall-clock waiver scope                                *)
(* ------------------------------------------------------------------ *)

(* Runner.Pool carries the repo's only wall-clock lint waiver
   (Unix.gettimeofday for job metrics).  That waiver must never leak
   into anything ordering-relevant: lib/par does not read wall time at
   all (the lint's All-scope wall-clock rule covers it), and a pooled
   run's deterministic report rows must be byte-identical across
   repeated runs even though the measured metrics legitimately vary.
   This is the --deterministic scrub: substitute Metrics.zero before
   rendering. *)
let test_pool_metrics_outside_determinism () =
  let base =
    Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
      ~case:Experiments.Tree.L4_all
  in
  let config =
    { base with Experiments.Sharing.duration = 12.0; warmup = 3.0 }
  in
  let jobs () =
    [
      Experiments.Sharing.job ~label:"a" config;
      Experiments.Sharing.job ~label:"b"
        { config with Experiments.Sharing.seed = 2 };
    ]
  in
  let payload (o : Experiments.Sharing.result Runner.Pool.outcome) =
    let r = o.Runner.Pool.value in
    [
      ("ratio", Runner.Json.Float r.Experiments.Sharing.ratio);
      ("fair", Runner.Json.Bool r.Experiments.Sharing.essentially_fair);
      ( "rla_send",
        Runner.Json.Float r.Experiments.Sharing.rla.Rla.Sender.send_rate );
    ]
  in
  let deterministic_rows outcomes =
    List.map
      (fun o ->
        Runner.Json.to_string
          (Runner.Report.run_row_json payload
             { o with Runner.Pool.metrics = Runner.Metrics.zero }))
      outcomes
  in
  let first = Runner.Pool.run ~jobs:2 (jobs ()) in
  let second = Runner.Pool.run ~jobs:2 (jobs ()) in
  Alcotest.(check (list string))
    "scrubbed report rows byte-identical across runs"
    (deterministic_rows first) (deterministic_rows second);
  List.iter
    (fun (o : _ Runner.Pool.outcome) ->
      Alcotest.(check bool) "wall clock metrics are sane" true
        (o.Runner.Pool.metrics.Runner.Metrics.wall_s >= 0.0))
    (first @ second)

let () =
  Alcotest.run "par"
    [
      ( "topo",
        [
          QCheck_alcotest.to_alcotest prop_kary_shape;
          Alcotest.test_case "fat-tree shape" `Quick test_fat_tree_shape;
          QCheck_alcotest.to_alcotest prop_random_graph_sound;
          Alcotest.test_case "of_edges validation" `Quick
            test_of_edges_validation;
          Alcotest.test_case "tree paths" `Quick test_tree_path;
        ] );
      ( "partition",
        [
          QCheck_alcotest.to_alcotest prop_partition_invariants;
          Alcotest.test_case "cuts the slow links" `Quick
            test_partition_cuts_slow_links;
          Alcotest.test_case "part count validated" `Quick
            test_partition_validation;
        ] );
      ( "engine",
        [
          Alcotest.test_case "zero-delay cut rejected" `Quick
            test_zero_delay_cut_rejected;
          Alcotest.test_case "interior-round delivery" `Quick
            test_lookahead_interior_round;
          Alcotest.test_case "horizon-edge delivery" `Quick
            test_lookahead_horizon_edge;
        ] );
      ( "scenario",
        [
          QCheck_alcotest.to_alcotest prop_workers_invariant;
          Alcotest.test_case "figure-6 golden byte-compare" `Quick
            test_figure6_golden;
          Alcotest.test_case "sharded sender golden" `Quick
            test_sharded_sender_golden;
          Alcotest.test_case "merge-order golden" `Quick
            test_merge_order_golden;
          Alcotest.test_case "checkpoint rejected" `Quick
            test_checkpoint_rejected;
          Alcotest.test_case "cross-shard TCP rejected" `Quick
            test_cross_shard_tcp_rejected;
          Alcotest.test_case "bad configs rejected" `Quick
            test_bad_config_rejected;
          Alcotest.test_case "zero-delay cut surfaces" `Quick
            test_scenario_zero_delay_cut;
        ] );
      ( "pool",
        [
          Alcotest.test_case "metrics outside the deterministic report"
            `Quick test_pool_metrics_outside_determinism;
        ] );
    ]
