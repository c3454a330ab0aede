(* The fixture behind the byte-identity goldens in test_obs and
   test_ckpt: a short instrumented RED run of bottleneck case 3 (seed 7,
   10 s simulated, 2.5 s warm-up), driven exactly like the plain run
   loop and stopped at its end. *)

let config =
  {
    (Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Red
       ~case:(Experiments.Tree.case_of_index 3))
    with
    Experiments.Sharing.duration = 10.0;
    warmup = 2.5;
    seed = 7;
  }

let run () =
  let registry = Obs.Registry.create () in
  let session = Experiments.Sharing.setup ~registry config in
  let net = session.Experiments.Sharing.net in
  Net.Network.run_until net config.Experiments.Sharing.warmup;
  Experiments.Sharing.start_measurement session;
  Net.Network.run_until net config.Experiments.Sharing.duration;
  ignore (Experiments.Sharing.measure session config);
  (session, registry)

(* The fixture behind the sharded-sender golden in test_par: a 64-leaf
   k-ary tree (fanout 4, depth 3) under seed 3, 8 s simulated with a
   2 s warm-up.  Its measured window holds congestion signals and
   retransmissions but no timeout, so the sender's per-ack
   retransmission decisions are what the golden pins. *)
let sharded_config =
  {
    Experiments.Scaling.default_sharded_config with
    Experiments.Scaling.fanout = 4;
    depth = 3;
    duration = 8.0;
    warmup = 2.0;
    seed = 3;
  }

let sharded_run () =
  match Experiments.Scaling.run_sharded sharded_config with
  | Ok r -> r
  | Error e -> failwith (Par.Scenario.error_to_string e)

(* The fixture behind the distant-receiver golden in test_rla: a star
   whose two near branches are lossy 50 pkt/s bottlenecks and whose far
   branch is fast but 150 ms long (seed 5, 120 s simulated).  A near
   receiver finds a packet lost before the far one has received it, so
   the retransmission decision waits in [pending] until the far
   receiver's acknowledgment reports the packet. *)
let distant_receiver_run () =
  let link ~mu ~delay ~capacity =
    {
      Net.Link.bandwidth_bps = mu *. 8000.0;
      prop_delay = delay;
      queue = Net.Queue_disc.Droptail;
      capacity;
      phase_jitter = true;
    }
  in
  let net = Net.Network.create ~seed:5 () in
  let add () = Net.Node.id (Net.Network.add_node net) in
  let s = add () in
  let hub = add () in
  let near = List.init 2 (fun _ -> add ()) in
  let far = add () in
  ignore
    (Net.Network.duplex net s hub (link ~mu:12500.0 ~delay:0.005 ~capacity:100));
  List.iter
    (fun l ->
      ignore
        (Net.Network.duplex net hub l (link ~mu:50.0 ~delay:0.005 ~capacity:8)))
    near;
  ignore
    (Net.Network.duplex net hub far (link ~mu:5000.0 ~delay:0.15 ~capacity:100));
  Net.Network.install_routes net;
  let rla = Rla.Sender.create ~net ~src:s ~receivers:(near @ [ far ]) () in
  Net.Network.run_until net 120.0;
  rla
