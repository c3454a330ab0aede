type config = {
  topo : Net.Topo.t;
  parts : int;
  src : int;
  receivers : int list;
  tcp_pairs : (int * int) list;
  workers : int;
  duration : float;
  warmup : float;
  seed : int;
  rla_params : Rla.Params.t;
  with_registry : bool;
}

type error =
  | Zero_delay_cut of int * int
  | Cross_shard_tcp of int * int
  | Bad_config of string
  | Checkpoint_unsupported

type result = {
  shards : int;
  workers : int;
  lookahead : float;
  rounds : int;
  events_fired : int;
  n_receivers : int;
  cut_edges : int;
  rla : Rla.Sender.snapshot;
  tcp : ((int * int) * Tcp.Sender.snapshot) list;
  jain : float;
  fairness_table : string;
  registry_json : string;
  trace_csv : string;
}

let error_to_string = function
  | Zero_delay_cut (u, v) ->
      Printf.sprintf
        "shard-crossing link %d-%d has no propagation delay (zero lookahead); \
         repartition or give the link a positive delay"
        u v
  | Cross_shard_tcp (a, b) ->
      Printf.sprintf
        "TCP pair %d-%d crosses a shard boundary; competing flows must stay \
         inside one shard"
        a b
  | Bad_config msg -> "bad scenario config: " ^ msg
  | Checkpoint_unsupported ->
      "sharded runs are not checkpointable; drop --checkpoint-every or run \
       with --shards 1 through a sequential experiment"

let validate config =
  let n = Net.Topo.node_count config.topo in
  if config.duration <= 0.0 then Some "duration must be positive"
  else if config.warmup < 0.0 || config.warmup >= config.duration then
    Some "need 0 <= warmup < duration"
  else if config.workers < 1 then Some "workers must be >= 1"
  else if config.src < 0 || config.src >= n then Some "src out of range"
  else if config.receivers = [] then Some "no receivers"
  else if
    List.exists
      (fun m -> m < 0 || m >= n || m = config.src)
      config.receivers
  then Some "receiver out of range (or equal to src)"
  else if
    List.exists
      (fun (a, b) -> a < 0 || a >= n || b < 0 || b >= n || a = b)
      config.tcp_pairs
  then Some "tcp pair out of range"
  else None

(* The unique path used for a TCP pair: the direct link when the pair
   is adjacent, else the tree path through the BFS forest rooted at the
   RLA source. *)
let tcp_path eng ~parents a b =
  if Engine.link_for eng a b <> None then [ a; b ]
  else Net.Topo.tree_path ~parents a b

let render_fairness_table config ~eng ~partition ~gateway ~(rla : Rla.Sender.snapshot)
    ~(tcp : ((int * int) * Tcp.Sender.snapshot) list) ~jain =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let n_rcvrs = List.length config.receivers in
  p "sharded RLA scenario: %d nodes, %d edges, %d shards, %d receivers\n"
    (Net.Topo.node_count config.topo)
    (Net.Topo.edge_count config.topo)
    partition.Partition.parts n_rcvrs;
  p "lookahead %.6f s over %d cut edges; %d rounds; %d events\n"
    (Engine.lookahead eng)
    (List.length partition.Partition.cut)
    (Engine.rounds eng) (Engine.events_fired eng);
  p "RLA  send %.4f pkt/s  goodput %.4f pkt/s  cwnd_avg %.4f  signals %d  cuts %d\n"
    rla.Rla.Sender.send_rate rla.Rla.Sender.throughput rla.Rla.Sender.cwnd_avg
    rla.Rla.Sender.congestion_signals rla.Rla.Sender.window_cuts;
  let a, b = Rla.Fairness.essential_bounds gateway ~n:n_rcvrs in
  List.iter
    (fun ((s, d), (snap : Tcp.Sender.snapshot)) ->
      let ratio =
        Rla.Fairness.measured_ratio ~rla_throughput:rla.Rla.Sender.send_rate
          ~tcp_throughput:snap.Tcp.Sender.send_rate
      in
      let fair =
        Rla.Fairness.is_essentially_fair gateway ~n:n_rcvrs
          ~rla_throughput:rla.Rla.Sender.send_rate
          ~tcp_throughput:snap.Tcp.Sender.send_rate
      in
      p "TCP %d->%d  send %.4f pkt/s  ratio %.4f  %s\n" s d
        snap.Tcp.Sender.send_rate ratio
        (if fair then "essentially-fair" else "OUT-OF-BOUNDS"))
    tcp;
  p "bounds (a, b) = (%.4f, %.4f) for n = %d\n" a b n_rcvrs;
  p "jain(tcp send rates) = %.6f\n" jain;
  Buffer.contents buf

let merged_registry_json eng =
  let shards =
    List.init (Engine.shards eng) (fun i ->
        match Engine.shard_registry eng i with
        | None -> Runner.Json.Obj [ ("shard", Runner.Json.Int i) ]
        | Some reg ->
            Runner.Json.Obj
              [
                ("shard", Runner.Json.Int i);
                ("registry", Runner.Report.registry_json reg);
              ])
  in
  Runner.Json.to_string (Runner.Json.Obj [ ("shards", Runner.Json.List shards) ])

let merged_trace_csv eng =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf Runner.Report.flow_csv_header;
  for i = 0 to Engine.shards eng - 1 do
    Option.iter (Runner.Report.add_flow_rows buf) (Engine.shard_registry eng i)
  done;
  Buffer.contents buf

let has_red topo =
  List.exists
    (fun e ->
      match e.Net.Topo.config.Net.Link.queue with
      | Net.Queue_disc.Red_gateway _ -> true
      | Net.Queue_disc.Droptail | Net.Queue_disc.Bernoulli_loss _ -> false)
    topo.Net.Topo.edges

let run ?checkpoint config =
  match checkpoint with
  | Some _ -> Error Checkpoint_unsupported
  | None -> (
      match validate config with
      | Some msg -> Error (Bad_config msg)
      | None -> (
          let partition = Partition.kruskal config.topo ~parts:config.parts in
          let parents = Net.Topo.bfs_parents config.topo ~root:config.src in
          if List.exists (fun m -> parents.(m) < 0) config.receivers then
            Error (Bad_config "receiver unreachable from src")
          else
            match
              Engine.create ~topo:config.topo ~partition ~seed:config.seed
                ~registries:config.with_registry ()
            with
            | Error (Engine.Zero_delay_cut { u; v }) ->
                Error (Zero_delay_cut (u, v))
            | Ok eng -> (
                (* Acks (and anything else addressed to the source)
                   route along the BFS forest. *)
                Engine.install_toward eng ~parents ~dest:config.src;
                (* Competing TCP flows must be shard-local end to end. *)
                let cross =
                  List.find_opt
                    (fun (a, b) ->
                      let oa = Engine.owner eng a in
                      oa <> Engine.owner eng b
                      || List.exists
                           (fun v -> Engine.owner eng v <> oa)
                           (tcp_path eng ~parents a b))
                    config.tcp_pairs
                in
                match cross with
                | Some (a, b) -> Error (Cross_shard_tcp (a, b))
                | None ->
                    List.iter
                      (fun (a, b) ->
                        Engine.install_path eng (tcp_path eng ~parents a b))
                      config.tcp_pairs;
                    (* Multicast tree + per-receiver unicast branches,
                       then the spanning RLA session: local endpoints
                       on the source shard, remote endpoints on their
                       home shards, all on the session's flow id. *)
                    let src_shard = Engine.owner eng config.src in
                    let snet = Engine.shard_net eng src_shard in
                    let group = Net.Network.fresh_group snet in
                    List.iter
                      (fun m ->
                        let branch =
                          List.rev (Net.Topo.path_to_root ~parents m)
                        in
                        Engine.install_mcast_branch eng ~group branch;
                        Engine.install_path eng branch;
                        Engine.join eng ~group m)
                      config.receivers;
                    let local =
                      List.filter
                        (fun m -> Engine.owner eng m = src_shard)
                        config.receivers
                    in
                    let rla =
                      Rla.Sender.create ~net:snet ~src:config.src
                        ~receivers:config.receivers ~params:config.rla_params
                        ~endpoints:local ~tree:(`Preinstalled group) ()
                    in
                    let flow = Rla.Sender.flow rla in
                    let _remote_endpoints =
                      List.filter_map
                        (fun m ->
                          if Engine.owner eng m = src_shard then None
                          else
                            Some
                              (Rla.Receiver.create
                                 ~net:(Engine.shard_net eng (Engine.owner eng m))
                                 ~node:m ~flow ~sender:config.src
                                 ~ack_jitter:
                                   config.rla_params.Rla.Params.ack_jitter ()))
                        config.receivers
                    in
                    let tcps =
                      List.map
                        (fun (a, b) ->
                          let net =
                            Engine.shard_net eng (Engine.owner eng a)
                          in
                          ((a, b), Tcp.Sender.create ~net ~src:a ~dst:b ()))
                        config.tcp_pairs
                    in
                    Engine.run eng ~until:config.warmup
                      ~workers:config.workers;
                    Rla.Sender.reset_measurement rla;
                    List.iter
                      (fun (_, tcp) -> Tcp.Sender.reset_measurement tcp)
                      tcps;
                    Engine.run eng ~until:config.duration
                      ~workers:config.workers;
                    let rla_snap = Rla.Sender.snapshot rla in
                    let tcp_snaps =
                      List.map
                        (fun (pair, tcp) -> (pair, Tcp.Sender.snapshot tcp))
                        tcps
                    in
                    let jain =
                      match tcp_snaps with
                      | [] -> 1.0
                      | _ ->
                          Rla.Fairness.jain
                            (List.map
                               (fun (_, (s : Tcp.Sender.snapshot)) ->
                                 s.Tcp.Sender.send_rate)
                               tcp_snaps)
                    in
                    let gateway =
                      if has_red config.topo then Rla.Fairness.Red
                      else Rla.Fairness.Droptail
                    in
                    Ok
                      {
                        shards = Engine.shards eng;
                        workers = config.workers;
                        lookahead = Engine.lookahead eng;
                        rounds = Engine.rounds eng;
                        events_fired = Engine.events_fired eng;
                        n_receivers = List.length config.receivers;
                        cut_edges = List.length partition.Partition.cut;
                        rla = rla_snap;
                        tcp = tcp_snaps;
                        jain;
                        fairness_table =
                          render_fairness_table config ~eng ~partition
                            ~gateway ~rla:rla_snap ~tcp:tcp_snaps ~jain;
                        registry_json =
                          (if config.with_registry then
                             merged_registry_json eng
                           else "");
                        trace_csv =
                          (if config.with_registry then merged_trace_csv eng
                           else "");
                      })))
