type t = {
  sched : Sim.Scheduler.t;
  root_rng : Sim.Rng.t;
  pool : Packet.Pool.t;
  mutable nodes : Node.t array;
  mutable n_nodes : int;
  directed : (Packet.addr * Packet.addr, Link.t) Hashtbl.t;
  mutable link_list : Link.t list;  (* reverse creation order *)
  (* Per-node neighbor lists in reverse insertion order; [edges] gives
     O(1) duplicate detection so topology build stays O(E) instead of
     O(deg^2) per node. *)
  adjacency : (Packet.addr, Packet.addr list ref) Hashtbl.t;
  edges : (Packet.addr * Packet.addr, unit) Hashtbl.t;
  mutable next_flow : int;
  mutable next_group : int;
  mutable next_uid : int;
  mutable routed : bool;
  mutable observer : Obs.Registry.t option;
}

let create ?(seed = 1) () =
  {
    sched = Sim.Scheduler.create ();
    root_rng = Sim.Rng.create seed;
    pool = Packet.Pool.create ();
    nodes = [||];
    n_nodes = 0;
    directed = Hashtbl.create 64;
    link_list = [];
    adjacency = Hashtbl.create 64;
    edges = Hashtbl.create 64;
    next_flow = 0;
    next_group = 0;
    next_uid = 0;
    routed = false;
    observer = None;
  }

let scheduler t = t.sched

let pool t = t.pool

let fork_rng t = Sim.Rng.split t.root_rng

let observer t = t.observer

let set_registry t reg =
  t.observer <- reg;
  Sim.Scheduler.set_registry t.sched reg;
  List.iter (fun link -> Link.set_registry link reg) t.link_list

let now t = Sim.Scheduler.now t.sched

(* Sparse networks (shard-local slices of a global address space) fill
   gap slots with an aliased filler node whose [Node.id] differs from
   the slot index; [node] treats those slots as absent. *)
let add_node_at t addr =
  if addr < 0 then invalid_arg "Network.add_node_at: negative address";
  if addr < t.n_nodes && Node.id t.nodes.(addr) = addr then
    invalid_arg
      (Printf.sprintf "Network.add_node_at: node %d already exists" addr);
  let node = Node.create ~pool:t.pool addr in
  if addr >= Array.length t.nodes then begin
    let grown =
      Array.make
        (Stdlib.max 8 (Stdlib.max (addr + 1) (2 * Array.length t.nodes)))
        node
    in
    Array.blit t.nodes 0 grown 0 t.n_nodes;
    t.nodes <- grown
  end;
  t.nodes.(addr) <- node;
  if addr >= t.n_nodes then t.n_nodes <- addr + 1;
  node

let add_node t = add_node_at t t.n_nodes

let node t addr =
  if addr < 0 || addr >= t.n_nodes then raise Not_found;
  let n = t.nodes.(addr) in
  if Node.id n <> addr then raise Not_found;
  n

let node_count t = t.n_nodes

let add_neighbor t a b =
  if not (Hashtbl.mem t.edges (a, b)) then begin
    Hashtbl.replace t.edges (a, b) ();
    match Hashtbl.find_opt t.adjacency a with
    | None -> Hashtbl.replace t.adjacency a (ref [ b ])
    | Some l -> l := b :: !l
  end

let one_way t a b config =
  let dst_node = node t b in
  let id = Printf.sprintf "%d->%d" a b in
  let link =
    Link.create ~sched:t.sched ~rng:(fork_rng t) ~pool:t.pool ~id config
      ~deliver:(fun pkt -> Node.receive dst_node pkt)
  in
  Hashtbl.replace t.directed (a, b) link;
  t.link_list <- link :: t.link_list;
  add_neighbor t a b;
  (match t.observer with
  | None -> ()
  | Some _ -> Link.set_registry link t.observer);
  link

let duplex t a b config =
  if a = b then invalid_arg "Network.duplex: self loop";
  ignore (node t a);
  let ab = one_way t a b config in
  let ba = one_way t b a config in
  t.routed <- false;
  (ab, ba)

let link_between t a b = Hashtbl.find_opt t.directed (a, b)

let links t = List.rev t.link_list

(* Reversing restores insertion order, keeping BFS routing (and thus
   route selection) deterministic and identical to the append-based
   construction this replaces. *)
let neighbors t a =
  match Hashtbl.find_opt t.adjacency a with
  | None -> []
  | Some l -> List.rev !l

(* BFS from [dest]; parent.(v) is the next node on v's shortest path
   towards [dest]. *)
let bfs_parents t dest =
  let parent = Array.make t.n_nodes (-1) in
  let visited = Array.make t.n_nodes false in
  visited.(dest) <- true;
  let frontier = Queue.create () in
  Queue.add dest frontier;
  while not (Queue.is_empty frontier) do
    let u = Queue.take frontier in
    List.iter
      (fun v ->
        if not visited.(v) then begin
          visited.(v) <- true;
          parent.(v) <- u;
          Queue.add v frontier
        end)
      (neighbors t u)
  done;
  parent

let install_routes t =
  for dest = 0 to t.n_nodes - 1 do
    let parent = bfs_parents t dest in
    for v = 0 to t.n_nodes - 1 do
      if v <> dest && parent.(v) >= 0 then
        match link_between t v parent.(v) with
        | Some link -> Node.set_route t.nodes.(v) ~dest link
        | None -> ()
    done
  done;
  t.routed <- true

let require_routes t caller =
  if not t.routed then
    invalid_arg (caller ^ ": call Network.install_routes first")

let path t a b =
  require_routes t "Network.path";
  let rec walk v acc =
    if v = b then List.rev acc
    else
      match Node.route (node t v) ~dest:b with
      | None -> []
      | Some link -> (
          (* The link id encodes "src->dst"; recover the next hop from
             the routing table by scanning neighbors. *)
          match
            List.find_opt
              (fun w ->
                match link_between t v w with
                | Some l -> Link.id l = Link.id link
                | None -> false)
              (neighbors t v)
          with
          | None -> []
          | Some w -> walk w (link :: acc))
  in
  if a = b then [] else walk a []

(* Graft one member onto the distribution tree: join it at its node and
   add the links of the unicast shortest path from [src] as multicast
   branches.  Idempotent (duplicate branches are ignored), so it serves
   both initial tree construction and runtime membership churn. *)
let graft_multicast t ~group ~src ~member =
  require_routes t "Network.graft_multicast";
  let m = member in
  Node.join (node t m) ~group;
  let rec walk v =
    if v <> m then
      match Node.route (node t v) ~dest:m with
      | None -> ()
      | Some link -> (
          match
            List.find_opt
              (fun w ->
                match link_between t v w with
                | Some l -> Link.id l = Link.id link
                | None -> false)
              (neighbors t v)
          with
          | None -> ()
          | Some w ->
              Node.add_mcast_route (node t v) ~group link;
              walk w)
  in
  walk src

let install_multicast t ~group ~src ~members =
  require_routes t "Network.install_multicast";
  List.iter (fun member -> graft_multicast t ~group ~src ~member) members

let fresh_flow t =
  let f = t.next_flow in
  t.next_flow <- f + 1;
  f

let set_flow_base t base =
  if base < t.next_flow then
    invalid_arg
      (Printf.sprintf
         "Network.set_flow_base: base %d is below already-allocated flow %d"
         base t.next_flow);
  t.next_flow <- base

let fresh_group t =
  let g = t.next_group in
  t.next_group <- g + 1;
  g

let make_packet t ~flow ~src ~dst ~size ~payload =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  Packet.Pool.acquire t.pool ~uid ~flow ~src ~dst ~size ~payload ~born:(now t)

let send t pkt = Node.receive (node t pkt.Packet.src) pkt

(* Materialize a packet arriving from outside this network (another
   shard of a parallel run): a fresh local uid, but the original flow,
   endpoints, birth time and ECN state carried over.  Mirrors the
   link-layer copy-on-write mark: the field is set while this side
   holds the only reference. *)
let import_packet t ~flow ~src ~dst ~size ~payload ~born ~ecn =
  let uid = t.next_uid in
  t.next_uid <- uid + 1;
  let pkt = Packet.Pool.acquire t.pool ~uid ~flow ~src ~dst ~size ~payload ~born in
  if ecn then pkt.Packet.ecn <- true;
  pkt

let run_until t horizon = Sim.Scheduler.run_until t.sched horizon

(* --- checkpoint/restore -------------------------------------------- *)

type state = {
  s_root_rng : int64;
  s_next_flow : int;
  s_next_group : int;
  s_next_uid : int;
  s_nodes : int list;  (* undeliverable counts, by address *)
  s_links : Link.state list;  (* creation order *)
}

let capture t =
  {
    s_root_rng = Sim.Rng.state t.root_rng;
    s_next_flow = t.next_flow;
    s_next_group = t.next_group;
    s_next_uid = t.next_uid;
    s_nodes =
      List.init t.n_nodes (fun i ->
          let n = t.nodes.(i) in
          if Node.id n <> i then
            invalid_arg
              (Printf.sprintf
                 "Network.capture: address %d is a gap (sparse networks are \
                  not capturable)"
                 i);
          Node.capture n);
    s_links = List.map Link.capture (links t);
  }

(* The topology itself (nodes, links, routes, trees) is not serialized:
   restore targets a network rebuilt deterministically by the same
   experiment setup, and only overwrites mutable simulation state.
   Must run after [Sim.Scheduler.restore] (links re-arm their pending
   events); the scheduler is deliberately untouched here. *)
let restore t st =
  if List.length st.s_nodes <> t.n_nodes then
    invalid_arg
      (Printf.sprintf "Network.restore: %d nodes captured, %d present"
         (List.length st.s_nodes) t.n_nodes);
  let ls = links t in
  if List.length st.s_links <> List.length ls then
    invalid_arg
      (Printf.sprintf "Network.restore: %d links captured, %d present"
         (List.length st.s_links) (List.length ls));
  Sim.Rng.set_state t.root_rng st.s_root_rng;
  t.next_flow <- st.s_next_flow;
  t.next_group <- st.s_next_group;
  t.next_uid <- st.s_next_uid;
  List.iteri (fun i n -> Node.restore t.nodes.(i) n) st.s_nodes;
  List.iter2 Link.restore ls st.s_links
