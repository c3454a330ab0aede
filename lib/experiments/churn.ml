type gen = {
  gen_seed : int;
  outage_rate : float;
  churn_rate : float;
  flow_rate : float;
}

type spec =
  | No_faults
  | Default_script
  | Scripted of Faults.Timeline.t
  | Generated of gen

type config = { sharing : Sharing.config; faults : spec }

type epoch = {
  t_start : float;
  t_end : float;
  rla_send_rate : float;
  wtcp_send_rate : float;
  ratio : float;
  jain : float;
  bounds : float * float;
  essentially_fair : bool;
  n_active : int;
  events : string list;
}

type result = {
  config : config;
  sharing : Sharing.result;
  epochs : epoch list;
  timeline : Faults.Timeline.t;
  injected : int;
  skipped : int;
  outages : int;
  downtime : float;
  flows_started : int;
  flows_stopped : int;
}

(* The default script exercises every fault class inside the
   measurement window, scaled to its length: one leaf-link outage, one
   leave + rejoin, one competing short-lived TCP. *)
let default_timeline (tree : Tree.t) ~warmup ~duration =
  let at f = warmup +. (f *. (duration -. warmup)) in
  let leaf i = tree.Tree.leaves.(i) in
  let leaf_link i = (tree.Tree.g3.(i / 3), leaf i) in
  Faults.Timeline.scripted
    [
      (at 0.10, Faults.Timeline.Receiver_leave (leaf 6));
      (at 0.20, Faults.Timeline.Link_down (leaf_link 0));
      (at 0.30, Faults.Timeline.Flow_start { id = 1; dst = leaf 1 });
      (at 0.45, Faults.Timeline.Link_up (leaf_link 0));
      (at 0.55, Faults.Timeline.Receiver_join (leaf 6));
      (at 0.70, Faults.Timeline.Flow_stop { id = 1 });
    ]

let generated_timeline (tree : Tree.t) ~warmup ~duration g =
  let leaf i = tree.Tree.leaves.(i) in
  let leaf_link i = (tree.Tree.g3.(i / 3), leaf i) in
  let params =
    {
      (Faults.Timeline.default_gen ~start:warmup ~horizon:duration) with
      Faults.Timeline.outage_links = List.init 6 leaf_link;
      outage_rate = g.outage_rate;
      churn_receivers = Array.to_list tree.Tree.leaves;
      churn_rate = g.churn_rate;
      flow_dsts = Array.to_list tree.Tree.leaves;
      flow_rate = g.flow_rate;
    }
  in
  Faults.Timeline.generate ~rng:(Sim.Rng.create g.gen_seed) params

let resolve_timeline (config : config) (tree : Tree.t) =
  let warmup = config.sharing.Sharing.warmup in
  let duration = config.sharing.Sharing.duration in
  match config.faults with
  | No_faults -> Faults.Timeline.scripted []
  | Default_script -> default_timeline tree ~warmup ~duration
  | Scripted t -> t
  | Generated g -> generated_timeline tree ~warmup ~duration g

(* Epoch boundaries: every distinct fault time strictly inside the
   measurement window, plus the end of the run. *)
let boundaries timeline ~warmup ~duration =
  let inner =
    Faults.Timeline.entries timeline
    |> List.filter_map (fun { Faults.Timeline.time; _ } ->
           if time > warmup && time < duration then Some time else None)
    |> List.sort_uniq Float.compare
  in
  inner @ [ duration ]

let run_with_net ?registry (config : config) =
  let session = Sharing.setup ?registry config.sharing in
  let net = session.Sharing.net in
  let rla = session.Sharing.rla in
  let warmup = config.sharing.Sharing.warmup in
  let duration = config.sharing.Sharing.duration in
  let timeline = resolve_timeline config session.Sharing.tree in
  let flows_started = ref 0 in
  let flows_stopped = ref 0 in
  let live_flows : (int, Tcp.Sender.t) Hashtbl.t = Hashtbl.create 8 in
  let injector =
    if Faults.Timeline.is_empty timeline then None
    else
      let handlers =
        {
          Faults.Injector.on_receiver_leave =
            (fun a -> Rla.Sender.drop_receiver rla a);
          on_receiver_join =
            (fun a ->
              match Rla.Sender.add_receiver rla a with
              | ok -> ok
              | exception Invalid_argument _ -> false);
          on_flow_start =
            (fun ~id ~dst ->
              if Hashtbl.mem live_flows id then false
              else
                match Net.Network.node net dst with
                | exception Not_found -> false
                | _ ->
                    let tcp =
                      Tcp.Sender.create ~net ~src:session.Sharing.tree.Tree.root
                        ~dst ()
                    in
                    Hashtbl.replace live_flows id tcp;
                    incr flows_started;
                    true);
          on_flow_stop =
            (fun ~id ->
              match Hashtbl.find_opt live_flows id with
              | None -> false
              | Some tcp ->
                  Tcp.Sender.stop tcp;
                  Hashtbl.remove live_flows id;
                  incr flows_stopped;
                  true);
          on_rst_inject = (fun ~flow:_ ~dst:_ ~seq:_ -> false);
          on_data_inject = (fun ~flow:_ ~dst:_ ~seq:_ -> false);
          membership =
            (fun () -> List.length (Rla.Sender.active_receivers rla));
        }
      in
      Some (Faults.Injector.install ~net ~handlers timeline)
  in
  Net.Network.run_until net warmup;
  Sharing.start_measurement session;
  (* Cumulative packets-on-the-wire since the warmup reset, recovered
     from each flow's rate snapshot (rate x elapsed); differencing
     consecutive boundaries gives exact per-epoch rates.  Snapshots are
     passive, so epoch accounting cannot perturb the run. *)
  let cumulative t_now =
    let span = t_now -. warmup in
    let rla_cum = (Rla.Sender.snapshot rla).Rla.Sender.send_rate *. span in
    let tcp_cums =
      List.map
        (fun (leaf, tcp) ->
          (leaf, (Tcp.Sender.snapshot tcp).Tcp.Sender.send_rate *. span))
        session.Sharing.tcps
    in
    (rla_cum, tcp_cums)
  in
  let fairness_gateway =
    Scenario.to_fairness_gateway config.sharing.Sharing.gateway
  in
  let epoch_events ~t_start ~t_end =
    match injector with
    | None -> []
    | Some inj ->
        Faults.Injector.applied inj
        |> List.filter_map (fun { Faults.Injector.time; event; ok } ->
               if time > t_start && time <= t_end then
                 Some
                   (if ok then Faults.Timeline.event_to_string event
                    else Faults.Timeline.event_to_string event ^ " (skipped)")
               else None)
  in
  let prev = ref (warmup, 0.0, List.map (fun (l, _) -> (l, 0.0)) session.Sharing.tcps) in
  let epochs =
    List.map
      (fun b ->
        Net.Network.run_until net b;
        let rla_cum, tcp_cums = cumulative b in
        let t_prev, rla_prev, tcp_prevs = !prev in
        let dt = b -. t_prev in
        (* Clamp at zero: differencing two rate x span products can go
           epsilon-negative for a flow that was idle all epoch. *)
        let rla_send_rate = Float.max 0.0 ((rla_cum -. rla_prev) /. dt) in
        let tcp_rates =
          List.map2
            (fun (_, cum) (_, cum_prev) ->
              Float.max 0.0 ((cum -. cum_prev) /. dt))
            tcp_cums tcp_prevs
        in
        let wtcp_send_rate = List.fold_left Float.min infinity tcp_rates in
        let jain = Rla.Fairness.jain (rla_send_rate :: tcp_rates) in
        let n_active = List.length (Rla.Sender.active_receivers rla) in
        let ratio =
          Rla.Fairness.measured_ratio ~rla_throughput:rla_send_rate
            ~tcp_throughput:wtcp_send_rate
        in
        let bounds = Rla.Fairness.essential_bounds fairness_gateway ~n:n_active in
        let essentially_fair =
          Rla.Fairness.is_essentially_fair fairness_gateway ~n:n_active
            ~rla_throughput:rla_send_rate ~tcp_throughput:wtcp_send_rate
        in
        prev := (b, rla_cum, tcp_cums);
        {
          t_start = t_prev;
          t_end = b;
          rla_send_rate;
          wtcp_send_rate;
          ratio;
          jain;
          bounds;
          essentially_fair;
          n_active;
          events = epoch_events ~t_start:t_prev ~t_end:b;
        })
      (boundaries timeline ~warmup ~duration)
  in
  let sharing = Sharing.measure session config.sharing in
  ( net,
    {
      config;
      sharing;
      epochs;
      timeline;
      injected =
        (match injector with None -> 0 | Some i -> Faults.Injector.injected i);
      skipped =
        (match injector with None -> 0 | Some i -> Faults.Injector.skipped i);
      outages =
        (match injector with None -> 0 | Some i -> Faults.Injector.outages i);
      downtime =
        (match injector with None -> 0.0 | Some i -> Faults.Injector.downtime i);
      flows_started = !flows_started;
      flows_stopped = !flows_stopped;
    } )

let run ?registry config = snd (run_with_net ?registry config)

let job ~label config = Runner.Job.create ~label (fun () -> run_with_net config)

let case_config ~gateway ~case_index ?duration ?warmup ?seed
    ?(faults = Default_script) () =
  let base =
    Sharing.default_config ~gateway ~case:(Tree.case_of_index case_index)
  in
  {
    sharing =
      {
        base with
        Sharing.duration = Option.value duration ~default:base.Sharing.duration;
        warmup = Option.value warmup ~default:base.Sharing.warmup;
        seed = Option.value seed ~default:base.Sharing.seed;
      };
    faults;
  }

let sweep ~gateway ~case_indices ?duration ?warmup ?(seeds = [ 1 ]) ?faults
    ?jobs () =
  let jobs_list =
    List.concat_map
      (fun case_index ->
        List.map
          (fun seed ->
            job
              ~label:(Printf.sprintf "churn/case%d/seed%d" case_index seed)
              (case_config ~gateway ~case_index ?duration ?warmup ~seed ?faults
                 ()))
          seeds)
      case_indices
  in
  Runner.Pool.run ?jobs jobs_list

let print ppf (result : result) =
  let config = result.config.sharing in
  Fmt.pf ppf "@[<v>Churn — %s gateways, %s, %g s (warmup %g s), seed %d@,"
    (match config.Sharing.gateway with
    | Scenario.Droptail -> "drop-tail"
    | Scenario.Red -> "RED")
    (Tree.case_name config.Sharing.case)
    config.Sharing.duration config.Sharing.warmup config.Sharing.seed;
  Fmt.pf ppf
    "faults: %d injected, %d skipped, %d outages, %.3g s downtime, %d/%d \
     flows started/stopped@,@,"
    result.injected result.skipped result.outages result.downtime
    result.flows_started result.flows_stopped;
  Fmt.pf ppf "%-16s %6s %9s %9s %7s %6s %13s %5s  %s@,"
    "epoch [s]" "n_act" "rla p/s" "wtcp p/s" "ratio" "jain" "bounds" "fair?"
    "events";
  List.iter
    (fun e ->
      let lo, hi = e.bounds in
      Fmt.pf ppf
        "%7.1f-%-8.1f %6d %9.2f %9.2f %7.2f %6.3f [%4.2f,%6.2f] %5s  %s@,"
        e.t_start e.t_end e.n_active e.rla_send_rate e.wtcp_send_rate e.ratio
        e.jain lo hi
        (if e.essentially_fair then "yes" else "no")
        (String.concat "; " e.events))
    result.epochs;
  Fmt.pf ppf "@,whole-window ratio %.2f (%s)@]@."
    result.sharing.Sharing.ratio
    (if result.sharing.Sharing.essentially_fair then "essentially fair"
     else "outside bounds")

let to_json (result : result) =
  let open Runner.Json in
  let epoch e =
    let lo, hi = e.bounds in
    Obj
      [
        ("t_start", Float e.t_start);
        ("t_end", Float e.t_end);
        ("rla_send_rate", Float e.rla_send_rate);
        ("wtcp_send_rate", Float e.wtcp_send_rate);
        ("ratio", Float e.ratio);
        ("jain", Float e.jain);
        ("bound_lo", Float lo);
        ("bound_hi", Float hi);
        ("essentially_fair", Bool e.essentially_fair);
        ("n_active", Int e.n_active);
        ("events", List (List.map (fun s -> String s) e.events));
      ]
  in
  Obj
    [
      ("experiment", String "churn");
      ("gateway",
       String
         (match result.config.sharing.Sharing.gateway with
         | Scenario.Droptail -> "droptail"
         | Scenario.Red -> "red"));
      ("case", String (Tree.case_name result.config.sharing.Sharing.case));
      ("duration", Float result.config.sharing.Sharing.duration);
      ("warmup", Float result.config.sharing.Sharing.warmup);
      ("seed", Int result.config.sharing.Sharing.seed);
      ("timeline", String (Faults.Timeline.to_spec result.timeline));
      ("injected", Int result.injected);
      ("skipped", Int result.skipped);
      ("outages", Int result.outages);
      ("downtime_s", Float result.downtime);
      ("flows_started", Int result.flows_started);
      ("flows_stopped", Int result.flows_stopped);
      ("whole_window_ratio", Float result.sharing.Sharing.ratio);
      ("whole_window_fair", Bool result.sharing.Sharing.essentially_fair);
      ("epochs", List (List.map epoch result.epochs));
    ]
