type scheme =
  | Scheme_rla
  | Scheme_ltrc
  | Scheme_mbfc
  | Scheme_cbr
  | Scheme_rl_rate

let scheme_name = function
  | Scheme_rla -> "RLA"
  | Scheme_ltrc -> "LTRC"
  | Scheme_mbfc -> "MBFC"
  | Scheme_cbr -> "CBR"
  | Scheme_rl_rate -> "RL-rate"

type config = {
  gateway : Scenario.gateway;
  scheme : scheme;
  duration : float;
  warmup : float;
  seed : int;
  bottleneck_share : float;
  n_tcp : int;
  cbr_rate : float;
}

let default_config ~gateway ~scheme =
  {
    gateway;
    scheme;
    duration = 300.0;
    warmup = 100.0;
    seed = 1;
    bottleneck_share = 100.0;
    n_tcp = 3;
    cbr_rate = 100.0;
  }

type result = {
  config : config;
  mcast_throughput : float;
  tcp_mean : float;
  tcp_min : float;
  tcp_max : float;
  ratio : float;
}

let run config =
  if config.duration <= config.warmup then
    invalid_arg "Baseline_fairness.run: duration must exceed warmup";
  let net = Net.Network.create ~seed:config.seed () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves =
    List.init 3 (fun _ -> Net.Node.id (Net.Network.add_node net))
  in
  let mu = config.bottleneck_share *. float_of_int (config.n_tcp + 1) in
  ignore
    (Net.Network.duplex net s hub
       (Scenario.link_config ~gateway:config.gateway ~mu_pkts:mu ~delay:0.02 ()));
  List.iter
    (fun leaf ->
      ignore
        (Net.Network.duplex net hub leaf
           (Scenario.fast_link_config ~gateway:config.gateway ~delay:0.04 ())))
    leaves;
  Net.Network.install_routes net;
  (* The multicast session spans all three receivers. *)
  let rla = ref None in
  let rate = ref None in
  let rate_sender rate_config =
    rate :=
      Some
        (Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves rate_config)
  in
  (match config.scheme with
  | Scheme_rla ->
      rla := Some (Rla.Sender.create ~net ~src:s ~receivers:leaves ())
  | Scheme_ltrc ->
      rate_sender
        (Baselines.Rate_sender.default_config Baselines.Rate_sender.ltrc)
  | Scheme_mbfc ->
      rate_sender
        (Baselines.Rate_sender.default_config Baselines.Rate_sender.mbfc)
  | Scheme_cbr ->
      let c = config.cbr_rate in
      rate_sender
        {
          (Baselines.Rate_sender.default_config Baselines.Rate_sender.Fixed) with
          initial_rate = c;
          min_rate = c;
          max_rate = c;
        }
  | Scheme_rl_rate ->
      rate_sender
        (Baselines.Rate_sender.default_config Baselines.Rate_sender.random_listening));
  let tcps =
    List.init config.n_tcp (fun i ->
        Tcp.Sender.create ~net ~src:s ~dst:(List.nth leaves (i mod 3)) ())
  in
  Net.Network.run_until net config.warmup;
  (match !rla with Some r -> Rla.Sender.reset_measurement r | None -> ());
  (match !rate with
  | Some r -> Baselines.Rate_sender.reset_measurement r
  | None -> ());
  List.iter Tcp.Sender.reset_measurement tcps;
  Net.Network.run_until net config.duration;
  let mcast_throughput =
    match (!rla, !rate) with
    | Some r, _ -> (Rla.Sender.snapshot r).Rla.Sender.throughput
    | _, Some r -> Baselines.Rate_sender.min_delivered_rate r
    | None, None -> 0.0
  in
  let tcp_thrs =
    List.map (fun tcp -> (Tcp.Sender.snapshot tcp).Tcp.Sender.throughput) tcps
  in
  let tcp_mean =
    List.fold_left ( +. ) 0.0 tcp_thrs /. float_of_int (List.length tcp_thrs)
  in
  {
    config;
    mcast_throughput;
    tcp_mean;
    tcp_min = List.fold_left Stdlib.min infinity tcp_thrs;
    tcp_max = List.fold_left Stdlib.max 0.0 tcp_thrs;
    ratio = (if tcp_mean <= 0.0 then infinity else mcast_throughput /. tcp_mean);
  }

let run_matrix ?duration ?seed () =
  let schemes =
    [ Scheme_rla; Scheme_ltrc; Scheme_mbfc; Scheme_rl_rate; Scheme_cbr ]
  in
  let gateways = [ Scenario.Droptail; Scenario.Red ] in
  List.concat_map
    (fun gateway ->
      List.map
        (fun scheme ->
          let base = default_config ~gateway ~scheme in
          run
            {
              base with
              duration = Option.value duration ~default:base.duration;
              seed = Option.value seed ~default:base.seed;
            })
        schemes)
    gateways
