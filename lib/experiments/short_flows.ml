type background = Bg_none | Bg_tcp | Bg_rla | Bg_cbr of float

let background_name = function
  | Bg_none -> "idle"
  | Bg_tcp -> "TCP"
  | Bg_rla -> "RLA"
  | Bg_cbr rate -> Printf.sprintf "CBR@%.0f" rate

type config = {
  background : background;
  flow_size : int;
  arrival_rate : float;
  share : float;
  duration : float;
  warmup : float;
  seed : int;
}

let default_config background =
  {
    background;
    flow_size = 20;
    arrival_rate = 0.5;
    share = 100.0;
    duration = 300.0;
    warmup = 50.0;
    seed = 1;
  }

type result = {
  config : config;
  launched : int;
  completed : int;
  mean_completion : float;
  p95_completion : float;
  background_throughput : float;
}

type flow_record = { started : float; sender : Tcp.Sender.t }

let run config =
  if config.flow_size <= 0 then invalid_arg "Short_flows.run: bad flow size";
  if config.arrival_rate <= 0.0 then
    invalid_arg "Short_flows.run: bad arrival rate";
  if config.duration <= config.warmup then
    invalid_arg "Short_flows.run: duration must exceed warmup";
  let gateway = Scenario.Droptail in
  let net = Net.Network.create ~seed:config.seed () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves = List.init 3 (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  ignore
    (Net.Network.duplex net s hub
       (Scenario.fast_link_config ~gateway ~delay:0.005 ()));
  List.iter
    (fun leaf ->
      ignore
        (Net.Network.duplex net hub leaf
           (Scenario.link_config ~gateway ~mu_pkts:(config.share *. 2.0)
              ~delay:0.05 ())))
    leaves;
  Net.Network.install_routes net;
  (* Long-lived background. *)
  let rla = ref None and cbr = ref None and bg_tcps = ref [] in
  (match config.background with
  | Bg_none -> ()
  | Bg_rla -> rla := Some (Rla.Sender.create ~net ~src:s ~receivers:leaves ())
  | Bg_cbr rate ->
      cbr :=
        Some
          (Baselines.Rate_sender.create ~net ~src:s ~receivers:leaves
             {
               (Baselines.Rate_sender.default_config Baselines.Rate_sender.Fixed) with
               initial_rate = rate;
               min_rate = rate;
               max_rate = rate;
             })
  | Bg_tcp ->
      bg_tcps :=
        List.map (fun leaf -> Tcp.Sender.create ~net ~src:s ~dst:leaf ()) leaves);
  (* Poisson arrivals of short flows, round-robin over the leaves. *)
  let rng = Net.Network.fork_rng net in
  let flows = ref [] in
  let next_leaf = ref 0 in
  let sched = Net.Network.scheduler net in
  let launch () =
    let leaf = List.nth leaves (!next_leaf mod List.length leaves) in
    incr next_leaf;
    let sender =
      Tcp.Sender.create ~net ~src:s ~dst:leaf
        ~params:
          { Tcp.Sender.default_params with Tcp.Sender.limit = Some config.flow_size }
        ()
    in
    flows := { started = Sim.Scheduler.now sched; sender } :: !flows
  in
  let rec arrival () =
    launch ();
    ignore
      (Sim.Scheduler.schedule_after sched
         (Sim.Rng.exponential rng (1.0 /. config.arrival_rate))
         arrival)
  in
  ignore
    (Sim.Scheduler.schedule_after sched
       (Sim.Rng.exponential rng (1.0 /. config.arrival_rate))
       arrival);
  Net.Network.run_until net config.warmup;
  (match !rla with Some r -> Rla.Sender.reset_measurement r | None -> ());
  (match !cbr with Some c -> Baselines.Rate_sender.reset_measurement c | None -> ());
  Net.Network.run_until net config.duration;
  (* Only flows launched after warm-up and early enough to finish are
     scored; flows launched in the last 10% are censored. *)
  let cutoff = config.duration -. (0.1 *. (config.duration -. config.warmup)) in
  let scored =
    List.filter
      (fun f -> f.started >= config.warmup && f.started <= cutoff)
      !flows
  in
  let completions = Stats.Quantile.create () in
  let completed = ref 0 in
  List.iter
    (fun f ->
      match Tcp.Sender.completed_at f.sender with
      | Some finish ->
          incr completed;
          Stats.Quantile.add completions (finish -. f.started)
      | None -> ())
    scored;
  let background_throughput =
    match (config.background, !rla, !cbr, !bg_tcps) with
    | Bg_rla, Some r, _, _ -> (Rla.Sender.snapshot r).Rla.Sender.throughput
    | Bg_cbr _, _, Some c, _ -> Baselines.Rate_sender.min_delivered_rate c
    | Bg_tcp, _, _, tcps when tcps <> [] ->
        List.fold_left
          (fun acc tcp -> acc +. (Tcp.Sender.snapshot tcp).Tcp.Sender.throughput)
          0.0 tcps
        /. float_of_int (List.length tcps)
    | _ -> 0.0
  in
  {
    config;
    launched = List.length scored;
    completed = !completed;
    mean_completion =
      (if !completed = 0 then nan else Stats.Quantile.mean completions);
    p95_completion =
      (if !completed = 0 then nan else Stats.Quantile.quantile completions 0.95);
    background_throughput;
  }

let print ppf results =
  Format.fprintf ppf
    "@.Short flows — completion times under different long-lived backgrounds@.";
  Format.fprintf ppf "%s@." (String.make 84 '-');
  Format.fprintf ppf "%-10s %9s %10s %14s %14s %14s@." "background" "flows"
    "completed" "mean (s)" "p95 (s)" "bg pkt/s";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %9d %10d %14.2f %14.2f %14.1f@."
        (background_name r.config.background)
        r.launched r.completed r.mean_completion r.p95_completion
        r.background_throughput)
    results;
  Format.fprintf ppf "%s@." (String.make 84 '-')
