(* Cross-shard message: the full wire content of a packet that left
   its shard through a portal, plus the explicit merge key
   (arrival, source shard, per-shard sequence). *)
type msg = {
  m_arrival : float;
  m_src_shard : int;
  m_seq : int;
  m_entry : int;  (* global address of the receiving node *)
  m_flow : int;
  m_psrc : int;
  m_dst : Net.Packet.dest;
  m_size : int;
  m_payload : Net.Packet.payload;
  m_born : float;
  m_ecn : bool;
}

type shard = {
  index : int;
  net : Net.Network.t;
  registry : Obs.Registry.t option;
  mutable outbox : msg list;  (* reverse push order *)
  mutable out_seq : int;
  mutable inbox : msg list;  (* merge order; drained at round start *)
}

type t = {
  part : Partition.t;
  shards : shard array;
  portals : (int * int, Net.Link.t) Hashtbl.t;
  lookahead : float;
  mutable horizon : float;
  mutable rounds : int;
}

type error = Zero_delay_cut of { u : int; v : int }

(* Disjoint per-shard flow-id ranges keep flow numbers globally unique
   in merged reports. *)
let flow_stride = 1000

let owner t v = t.part.Partition.owner.(v)

let shards t = Array.length t.shards

let lookahead t = t.lookahead

let rounds t = t.rounds

let shard_net t i = t.shards.(i).net

let shard_registry t i = t.shards.(i).registry

let events_fired t =
  Array.fold_left
    (fun acc sh ->
      acc + Sim.Scheduler.events_fired (Net.Network.scheduler sh.net))
    0 t.shards

(* The portal's deliver callback runs at serialization end on the
   sending shard (the portal itself has zero propagation delay); the
   cut edge's real delay is added here, on the arrival stamp. *)
let make_portal t ~src_shard ~u ~v ~config =
  let sh = t.shards.(src_shard) in
  let net = sh.net in
  let cut_delay = config.Net.Link.prop_delay in
  let deliver pkt =
    let m =
      {
        m_arrival = Net.Network.now net +. cut_delay;
        m_src_shard = src_shard;
        m_seq = sh.out_seq;
        m_entry = v;
        m_flow = pkt.Net.Packet.flow;
        m_psrc = pkt.Net.Packet.src;
        m_dst = pkt.Net.Packet.dst;
        m_size = pkt.Net.Packet.size;
        m_payload = pkt.Net.Packet.payload;
        m_born = pkt.Net.Packet.born;
        m_ecn = pkt.Net.Packet.ecn;
      }
    in
    sh.out_seq <- sh.out_seq + 1;
    sh.outbox <- m :: sh.outbox;
    Net.Packet.Pool.release (Net.Network.pool net) pkt
  in
  let link =
    Net.Link.create
      ~sched:(Net.Network.scheduler net)
      ~rng:(Net.Network.fork_rng net) ~pool:(Net.Network.pool net)
      ~id:(Printf.sprintf "portal:%d->%d" u v)
      { config with Net.Link.prop_delay = 0.0 }
      ~deliver
  in
  Net.Link.set_registry link (Net.Network.observer net);
  Hashtbl.replace t.portals (u, v) link

let create ~topo ~partition ?(seed = 1) ?(registries = false) () =
  match
    List.find_opt
      (fun e -> e.Net.Topo.config.Net.Link.prop_delay <= 0.0)
      partition.Partition.cut
  with
  | Some e -> Error (Zero_delay_cut { u = e.Net.Topo.u; v = e.Net.Topo.v })
  | None ->
      let la =
        List.fold_left
          (fun acc e -> Stdlib.min acc e.Net.Topo.config.Net.Link.prop_delay)
          infinity partition.Partition.cut
      in
      let k = partition.Partition.parts in
      let shards =
        Array.init k (fun i ->
            let net = Net.Network.create ~seed:(seed + (1_000_003 * i)) () in
            Net.Network.set_flow_base net (i * flow_stride);
            let registry =
              if registries then Some (Obs.Registry.create ()) else None
            in
            Net.Network.set_registry net registry;
            { index = i; net; registry; outbox = []; out_seq = 0; inbox = [] })
      in
      Array.iteri
        (fun i sh ->
          List.iter
            (fun v -> ignore (Net.Network.add_node_at sh.net v))
            partition.Partition.members.(i))
        shards;
      let t =
        {
          part = partition;
          shards;
          portals = Hashtbl.create 64;
          lookahead = la;
          horizon = 0.0;
          rounds = 0;
        }
      in
      (* Topology edge order fixes link creation and RNG fork order on
         every shard, independent of anything runtime. *)
      List.iter
        (fun e ->
          let u = e.Net.Topo.u and v = e.Net.Topo.v in
          let ou = partition.Partition.owner.(u) in
          let ov = partition.Partition.owner.(v) in
          if ou = ov then
            ignore (Net.Network.duplex shards.(ou).net u v e.Net.Topo.config)
          else begin
            make_portal t ~src_shard:ou ~u ~v ~config:e.Net.Topo.config;
            make_portal t ~src_shard:ov ~u:v ~v:u ~config:e.Net.Topo.config
          end)
        topo.Net.Topo.edges;
      Ok t

(* --- routing over the partitioned address space -------------------- *)

let link_for t u v =
  match Hashtbl.find_opt t.portals (u, v) with
  | Some _ as l -> l
  | None -> Net.Network.link_between t.shards.(owner t u).net u v

let node_of t v = Net.Network.node t.shards.(owner t v).net v

let install_route t ~at ~dest ~next =
  match link_for t at next with
  | None ->
      invalid_arg
        (Printf.sprintf "Engine.install_route: no link %d -> %d" at next)
  | Some link -> Net.Node.set_route (node_of t at) ~dest link

let install_toward t ~parents ~dest =
  Array.iteri
    (fun v p -> if p >= 0 && p <> v then install_route t ~at:v ~dest ~next:p)
    parents

let rec hops f = function
  | a :: (b :: _ as rest) ->
      f a b;
      hops f rest
  | [] | [ _ ] -> ()

let install_path t path =
  match path with
  | [] | [ _ ] -> ()
  | first :: _ ->
      let rec last = function
        | [ x ] -> x
        | _ :: tl -> last tl
        | [] -> assert false
      in
      let dst = last path in
      hops (fun a b -> install_route t ~at:a ~dest:dst ~next:b) path;
      hops (fun a b -> install_route t ~at:a ~dest:first ~next:b) (List.rev path)

let install_mcast_branch t ~group path =
  hops
    (fun a b ->
      match link_for t a b with
      | None ->
          invalid_arg
            (Printf.sprintf "Engine.install_mcast_branch: no link %d -> %d" a b)
      | Some link -> Net.Node.add_mcast_route (node_of t a) ~group link)
    path

let join t ~group v = Net.Node.join (node_of t v) ~group

(* --- barrier rounds ------------------------------------------------- *)

let msg_compare a b =
  let c = Float.compare a.m_arrival b.m_arrival in
  if c <> 0 then c
  else
    let c = Int.compare a.m_src_shard b.m_src_shard in
    if c <> 0 then c else Int.compare a.m_seq b.m_seq

(* Importing at the barrier is always in time: a message produced in
   the round ending at H has arrival > H (see the interface), and the
   shard clock is exactly H after [run_until]. *)
let admit sh m =
  let net = sh.net in
  ignore
    (Sim.Scheduler.schedule_at
       (Net.Network.scheduler net)
       m.m_arrival
       (fun () ->
         let pkt =
           Net.Network.import_packet net ~flow:m.m_flow ~src:m.m_psrc
             ~dst:m.m_dst ~size:m.m_size ~payload:m.m_payload ~born:m.m_born
             ~ecn:m.m_ecn
         in
         Net.Node.receive (Net.Network.node net m.m_entry) pkt))

(* Barrier exchange, on the coordinating domain only: route every
   outbox message to its destination shard and sort per destination by
   the explicit (arrival, source shard, sequence) key.  Messages are
   then scheduled in that order at the next round start, so equal
   arrival times fire in merge order — fixed by data, not by worker
   interleaving. *)
let exchange t =
  let k = Array.length t.shards in
  let per_dst = Array.make k [] in
  Array.iter
    (fun sh ->
      List.iter
        (fun m ->
          let d = t.part.Partition.owner.(m.m_entry) in
          per_dst.(d) <- m :: per_dst.(d))
        (List.rev sh.outbox);
      sh.outbox <- [])
    t.shards;
  Array.iteri
    (fun d msgs -> t.shards.(d).inbox <- List.sort msg_compare msgs)
    per_dst

let round_body h sh =
  let inbox = sh.inbox in
  sh.inbox <- [];
  List.iter (admit sh) inbox;
  Net.Network.run_until sh.net h

(* One round across all shards.  Workers pull shard indices from a
   shared counter; assignment order cannot influence results because a
   shard is touched by exactly one domain per round and shards share no
   mutable state within a round. *)
let parallel_round t ~workers h =
  let n = Array.length t.shards in
  let w = Stdlib.min workers n in
  if w <= 1 then Array.iter (round_body h) t.shards
  else begin
    let next = Atomic.make 0 in
    let work () =
      let continue = ref true in
      while !continue do
        let i = Atomic.fetch_and_add next 1 in
        if i >= n then continue := false else round_body h t.shards.(i)
      done
    in
    let doms = List.init (w - 1) (fun _ -> Domain.spawn work) in
    work ();
    List.iter Domain.join doms
  end

let run t ~until ~workers =
  if until < t.horizon then
    invalid_arg
      (Printf.sprintf "Engine.run: until %g precedes the horizon %g" until
         t.horizon);
  let continue = ref true in
  while !continue do
    let h =
      if t.lookahead = infinity then until
      else Stdlib.min (t.horizon +. t.lookahead) until
    in
    parallel_round t ~workers h;
    t.horizon <- h;
    t.rounds <- t.rounds + 1;
    exchange t;
    if h >= until then continue := false
  done
