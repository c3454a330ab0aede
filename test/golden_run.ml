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
