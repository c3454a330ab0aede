type mix = Honest | Nonbackoff | Ackdiv | Optack | Rst

let all_mixes = [ Honest; Nonbackoff; Ackdiv; Optack; Rst ]

let mix_name = function
  | Honest -> "none"
  | Nonbackoff -> "nonbackoff"
  | Ackdiv -> "ackdiv"
  | Optack -> "optack"
  | Rst -> "rst"

type topology = Fig6 of Tree.case | Kary of { fanout : int; depth : int }

let topology_name = function
  | Fig6 case -> Tree.case_name case
  | Kary { fanout; depth } -> Printf.sprintf "kary%dx%d" fanout depth

type config = {
  topology : topology;
  gateway : Scenario.gateway;
  mix : mix;
  duration : float;
  warmup : float;
  seed : int;
  share : float;
  flood_rate : float;
  ackdiv_split : int;
  optack_lookahead : int;
  rst_count : int;
  rst_interval : float;
  rst_strict : bool;
}

let default_config ~mix =
  {
    topology = Fig6 (Tree.case_of_index 3);
    gateway = Scenario.Droptail;
    mix;
    duration = 300.0;
    warmup = 100.0;
    seed = 1;
    share = 100.0;
    flood_rate = 400.0;
    ackdiv_split = 4;
    optack_lookahead = 0;
    rst_count = 40;
    rst_interval = 4.0;
    rst_strict = true;
  }

type result = {
  config : config;
  label : string;
  n_receivers : int;
  rla_rate : float;
  wtcp_rate : float;
  btcp_rate : float;
  ratio : float;
  jain_honest : float;
  jain_all : float;
  bounds : float * float;
  essentially_fair : bool;
  adv_send_rate : float;
  adv_delivered_rate : float;
  ghost_acks : int;
  rst_accepted : int;
  rst_challenged : int;
  rst_dropped : int;
  rst_injected : int;
  victim_closed : bool;
}

(* A built hostile scenario before the clock advances: the honest
   population (RLA session + per-leaf background TCPs) plus whichever
   adversary the mix calls for.  The fig-6 variant keeps the
   [Sharing.session] so the honest metrics come out of the exact
   pipeline the Sharing goldens use. *)
type adversary =
  | No_adv
  | Flood of Adversary.Flood.t
  | Div of Adversary.Ackdiv.t
  | Opt of Adversary.Optack.t * Tcp.Sender.t
  | Blind of Adversary.Blind.t * Tcp.Sender.t

type session = {
  net : Net.Network.t;
  rla : Rla.Sender.t;
  tcps : (Net.Packet.addr * Tcp.Sender.t) list;
  congested : Net.Packet.addr list;
  sharing : Sharing.session option;  (* fig-6 only *)
  adversary : adversary;
}

(* The adversary aims at the first designated-congested leaf (fig 6)
   or the first leaf (k-ary): the one place where the theorem's
   worst-case TCP already lives. *)
let target_leaf ~congested ~leaves =
  match congested with
  | leaf :: _ -> leaf
  | [] -> (
      match leaves with
      | leaf :: _ -> leaf
      | [] -> invalid_arg "Hostile: no leaves")

let sharing_config config case =
  let base = Sharing.default_config ~gateway:config.gateway ~case in
  {
    base with
    Sharing.duration = config.duration;
    warmup = config.warmup;
    seed = config.seed;
    share = config.share;
  }

(* Single-network k-ary tree (the PR 7 scale topology, sized for one
   event loop): fast root links, soft-bottleneck interior links, RLA
   to every leaf plus one background TCP per leaf — the same
   population shape as the fig-6 tree. *)
let build_kary config ~fanout ~depth =
  if fanout < 2 then invalid_arg "Hostile: --fanout must be >= 2";
  if depth < 2 then invalid_arg "Hostile: --depth must be >= 2";
  let configs =
    [|
      Scenario.fast_link_config ~gateway:config.gateway ~delay:0.005 ();
      Scenario.link_config ~gateway:config.gateway
        ~mu_pkts:(config.share *. 2.0) ~delay:0.025 ();
    |]
  in
  let topo = Net.Topo.kary ~fanout ~depth ~configs in
  let net = Net.Network.create ~seed:config.seed () in
  for _ = 1 to Net.Topo.node_count topo do
    ignore (Net.Network.add_node net)
  done;
  List.iter
    (fun { Net.Topo.u; v; config = link } ->
      ignore (Net.Network.duplex net u v link))
    topo.Net.Topo.edges;
  Net.Network.install_routes net;
  let leaves = Net.Topo.leaves topo in
  let root = 0 in
  let rla = Rla.Sender.create ~net ~src:root ~receivers:leaves () in
  let tcps =
    List.map (fun leaf -> (leaf, Tcp.Sender.create ~net ~src:root ~dst:leaf ())) leaves
  in
  (net, root, leaves, rla, tcps)

(* The attacker cannot see the victim's sequence state but can guess
   its rate (the advertised fair share), so each injection aims where
   a share-rate flow's in-order point would be at that instant — the
   blind-but-informed guesser RFC 5961 is written against.  Some land
   in the validation window (challenge ack under strict mode, teardown
   on a legacy stack), the rest fall outside (dropped). *)
let rst_timeline config ~flow ~dst =
  Faults.Timeline.scripted
    (List.init config.rst_count (fun i ->
         let time =
           config.warmup +. (float_of_int (i + 1) *. config.rst_interval)
         in
         ( time,
           Faults.Timeline.Rst_inject
             { flow; dst; seq = int_of_float (config.share *. time) } )))

let install_adversary config ~net ~root ~tcps ~target =
  match config.mix with
  | Honest -> No_adv
  | Nonbackoff ->
      Flood
        (Adversary.Flood.create ~net ~src:root ~dst:target
           ~rate:config.flood_rate ())
  | Ackdiv ->
      Div
        (Adversary.Ackdiv.create ~net ~src:root ~dst:target
           ~params:
             {
               Adversary.Ackdiv.default_params with
               Adversary.Ackdiv.split = config.ackdiv_split;
             }
           ())
  | Optack ->
      let victim = List.assoc target tcps in
      let opt =
        Adversary.Optack.hijack ~net ~node:target
          ~flow:(Tcp.Sender.flow victim) ~peer:root
          ~lookahead:config.optack_lookahead ()
      in
      Opt (opt, victim)
  | Rst ->
      let victim = List.assoc target tcps in
      Tcp.Receiver.set_rst_strict (Tcp.Sender.receiver victim)
        config.rst_strict;
      let blind = Adversary.Blind.create ~net ~src:root () in
      let handlers =
        {
          Faults.Injector.null_handlers with
          Faults.Injector.on_rst_inject =
            (fun ~flow ~dst ~seq ->
              Adversary.Blind.rst blind ~flow ~dst ~seq;
              true);
          on_data_inject =
            (fun ~flow ~dst ~seq ->
              Adversary.Blind.data blind ~flow ~dst ~seq;
              true);
        }
      in
      ignore
        (Faults.Injector.install ~net ~handlers
           (rst_timeline config ~flow:(Tcp.Sender.flow victim) ~dst:target));
      Blind (blind, victim)

let setup ?registry config =
  if config.duration <= config.warmup then
    invalid_arg "Hostile.run: duration must exceed warmup";
  match config.topology with
  | Fig6 case ->
      let s = Sharing.setup ?registry (sharing_config config case) in
      let tree = s.Sharing.tree in
      let leaves = Array.to_list tree.Tree.leaves in
      let congested = tree.Tree.congested_leaves in
      let target = target_leaf ~congested ~leaves in
      let adversary =
        install_adversary config ~net:s.Sharing.net ~root:tree.Tree.root
          ~tcps:s.Sharing.tcps ~target
      in
      {
        net = s.Sharing.net;
        rla = s.Sharing.rla;
        tcps = s.Sharing.tcps;
        congested;
        sharing = Some s;
        adversary;
      }
  | Kary { fanout; depth } ->
      let net, root, leaves, rla, tcps = build_kary config ~fanout ~depth in
      Scenario.observe ?registry net;
      let target = target_leaf ~congested:[] ~leaves in
      let adversary = install_adversary config ~net ~root ~tcps ~target in
      { net; rla; tcps; congested = leaves; sharing = None; adversary }

let reset_measurements s =
  Rla.Sender.reset_measurement s.rla;
  List.iter (fun (_, tcp) -> Tcp.Sender.reset_measurement tcp) s.tcps;
  match s.adversary with
  | Flood f -> Adversary.Flood.reset_measurement f
  | Div d -> Adversary.Ackdiv.reset_measurement d
  | No_adv | Opt _ | Blind _ -> ()

let adv_rates s =
  match s.adversary with
  | No_adv -> (0.0, 0.0)
  | Flood f -> (Adversary.Flood.send_rate f, Adversary.Flood.delivered_rate f)
  | Div d -> (Adversary.Ackdiv.send_rate d, Adversary.Ackdiv.delivered_rate d)
  | Opt (_, victim) ->
      let snap = Tcp.Sender.snapshot victim in
      (snap.Tcp.Sender.send_rate, snap.Tcp.Sender.throughput)
  | Blind _ -> (0.0, 0.0)

let measure s config =
  let adv_send_rate, adv_delivered_rate = adv_rates s in
  let rla_rate, wtcp_rate, btcp_rate, ratio, jain_honest, bounds, fair, n =
    match s.sharing with
    | Some sharing_session ->
        let case =
          match config.topology with
          | Fig6 case -> case
          | Kary _ -> assert false
        in
        let r = Sharing.measure sharing_session (sharing_config config case) in
        ( r.Sharing.rla.Rla.Sender.send_rate,
          r.Sharing.wtcp.Tcp.Sender.send_rate,
          r.Sharing.btcp.Tcp.Sender.send_rate,
          r.Sharing.ratio,
          r.Sharing.jain,
          r.Sharing.bounds,
          r.Sharing.essentially_fair,
          r.Sharing.n_receivers )
    | None ->
        let rla_snap = Rla.Sender.snapshot s.rla in
        let tcp_rates =
          List.map
            (fun (_, tcp) -> (Tcp.Sender.snapshot tcp).Tcp.Sender.send_rate)
            s.tcps
        in
        let wtcp = List.fold_left Stdlib.min infinity tcp_rates in
        let btcp = List.fold_left Stdlib.max 0.0 tcp_rates in
        let n = List.length s.tcps in
        let fairness_gateway = Scenario.to_fairness_gateway config.gateway in
        let rla_rate = rla_snap.Rla.Sender.send_rate in
        ( rla_rate,
          wtcp,
          btcp,
          Rla.Fairness.measured_ratio ~rla_throughput:rla_rate
            ~tcp_throughput:wtcp,
          Rla.Fairness.jain (rla_rate :: tcp_rates),
          Rla.Fairness.essential_bounds fairness_gateway ~n,
          Rla.Fairness.is_essentially_fair fairness_gateway ~n
            ~rla_throughput:rla_rate ~tcp_throughput:wtcp,
          n )
  in
  (* With a flood or ack-division attacker the misbehaving flow is a
     separate population member; Jain over everyone shows how far the
     whole allocation is bent.  The optimistic acker hijacks an
     existing flow (already inside [jain_honest]); the RST injector
     sends no sustained traffic. *)
  let jain_all =
    match s.adversary with
    | Flood _ | Div _ ->
        let tcp_rates =
          List.map
            (fun (_, tcp) -> (Tcp.Sender.snapshot tcp).Tcp.Sender.send_rate)
            s.tcps
        in
        Rla.Fairness.jain
          ((Rla.Sender.snapshot s.rla).Rla.Sender.send_rate
           :: (tcp_rates @ [ adv_send_rate ]))
    | No_adv | Opt _ | Blind _ -> jain_honest
  in
  let ghost_acks =
    match s.adversary with
    | Opt (_, victim) -> Tcp.Sender.ghost_acks victim
    | _ -> 0
  in
  let rst_accepted, rst_challenged, rst_dropped, rst_injected, victim_closed =
    match s.adversary with
    | Blind (blind, victim) ->
        let rcvr = Tcp.Sender.receiver victim in
        ( Tcp.Receiver.rst_accepted rcvr,
          Tcp.Receiver.rst_challenged rcvr,
          Tcp.Receiver.rst_dropped rcvr,
          Adversary.Blind.rst_sent blind,
          Tcp.Receiver.closed rcvr )
    | _ -> (0, 0, 0, 0, false)
  in
  {
    config;
    label =
      Printf.sprintf "%s/%s" (topology_name config.topology)
        (mix_name config.mix);
    n_receivers = n;
    rla_rate;
    wtcp_rate;
    btcp_rate;
    ratio;
    jain_honest;
    jain_all;
    bounds;
    essentially_fair = fair;
    adv_send_rate;
    adv_delivered_rate;
    ghost_acks;
    rst_accepted;
    rst_challenged;
    rst_dropped;
    rst_injected;
    victim_closed;
  }

let run_with_net ?registry config =
  let s = setup ?registry config in
  Net.Network.run_until s.net config.warmup;
  reset_measurements s;
  Net.Network.run_until s.net config.duration;
  (s.net, measure s config)

let run ?registry config = snd (run_with_net ?registry config)

let print ppf results =
  Format.fprintf ppf
    "@.Hostile workloads — RLA + honest TCPs vs adversary mixes@.";
  Format.fprintf ppf "%-18s %8s %8s %8s %6s %9s %9s %6s %5s %5s %5s@."
    "scenario" "rla" "wtcp" "ratio" "jain" "adv-send" "adv-dlvr" "ghost"
    "rst-a" "rst-c" "rst-d";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%-18s %8.1f %8.1f %8.2f %6.3f %9.1f %9.1f %6d %5d %5d %5d%s@."
        r.label r.rla_rate r.wtcp_rate r.ratio r.jain_all r.adv_send_rate
        r.adv_delivered_rate r.ghost_acks r.rst_accepted r.rst_challenged
        r.rst_dropped
        (if r.victim_closed then "  (victim closed)"
         else if not r.essentially_fair then "  (NOT fair)"
         else ""))
    results

let csv_header =
  "scenario,mix,ratio,jain_honest,jain_all,rla_rate,wtcp_rate,btcp_rate,\
   adv_send_rate,adv_delivered_rate,ghost_acks,rst_accepted,rst_challenged,\
   rst_dropped,rst_injected,victim_closed,essentially_fair"

let to_csv_row r =
  Printf.sprintf "%s,%s,%.6f,%.6f,%.6f,%.4f,%.4f,%.4f,%.4f,%.4f,%d,%d,%d,%d,%d,%b,%b"
    (topology_name r.config.topology)
    (mix_name r.config.mix) r.ratio r.jain_honest r.jain_all r.rla_rate
    r.wtcp_rate r.btcp_rate r.adv_send_rate r.adv_delivered_rate r.ghost_acks
    r.rst_accepted r.rst_challenged r.rst_dropped r.rst_injected
    r.victim_closed r.essentially_fair

let to_json r =
  let a, b = r.bounds in
  Runner.Json.Obj
    [
      ("scenario", Runner.Json.String (topology_name r.config.topology));
      ("mix", Runner.Json.String (mix_name r.config.mix));
      ("seed", Runner.Json.Int r.config.seed);
      ("n_receivers", Runner.Json.Int r.n_receivers);
      ("rla_send_rate", Runner.Json.Float r.rla_rate);
      ("wtcp_send_rate", Runner.Json.Float r.wtcp_rate);
      ("btcp_send_rate", Runner.Json.Float r.btcp_rate);
      ("ratio", Runner.Json.Float r.ratio);
      ("jain", Runner.Json.Float r.jain_honest);
      ("jain_all", Runner.Json.Float r.jain_all);
      ("bound_a", Runner.Json.Float a);
      ("bound_b", Runner.Json.Float b);
      ("essentially_fair", Runner.Json.Bool r.essentially_fair);
      ("adv_send_rate", Runner.Json.Float r.adv_send_rate);
      ("adv_delivered_rate", Runner.Json.Float r.adv_delivered_rate);
      ("ghost_acks", Runner.Json.Int r.ghost_acks);
      ("rst_accepted", Runner.Json.Int r.rst_accepted);
      ("rst_challenged", Runner.Json.Int r.rst_challenged);
      ("rst_dropped", Runner.Json.Int r.rst_dropped);
      ("rst_injected", Runner.Json.Int r.rst_injected);
      ("victim_closed", Runner.Json.Bool r.victim_closed);
    ]

let job ~label config =
  Runner.Job.create ~label (fun () -> run_with_net config)

let sweep ~mixes ~case_index ?(duration = 300.0) ?(warmup = 100.0)
    ?(seeds = [ 1 ]) ?jobs () =
  let jobs_list =
    List.concat_map
      (fun mix ->
        List.map
          (fun seed ->
            let config =
              {
                (default_config ~mix) with
                topology = Fig6 (Tree.case_of_index case_index);
                duration;
                warmup;
                seed;
              }
            in
            job ~label:(Printf.sprintf "%s/seed%d" (mix_name mix) seed) config)
          seeds)
      mixes
  in
  Runner.Pool.run ?jobs jobs_list
