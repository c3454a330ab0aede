type shard = {
  net : Net.Network.t;
  registry : Obs.Registry.t option;
  mail : Mailbox.t;
  import : unit -> unit;  (* the event action of every import here *)
}

type t = {
  part : Partition.t;
  shards : shard array;
  mails : Mailbox.t array;  (* [shards.(i).mail] *)
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

let make_portal t ~src_shard ~u ~v ~config =
  let net = t.shards.(src_shard).net in
  let mail = t.shards.(src_shard).mail in
  let delay = config.Net.Link.prop_delay in
  let deliver pkt = Mailbox.push mail ~delay ~entry:v pkt in
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
            let mail = Mailbox.create net in
            { net; registry; mail; import = (fun () -> Mailbox.import mail) })
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
          mails = Array.map (fun sh -> sh.mail) shards;
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

(* Importing at the barrier is always in time: a message produced in
   the round ending at H has arrival > H (see the interface), and the
   shard clock is exactly H after [run_until]. *)
let round_body h sh =
  Mailbox.schedule sh.mail sh.import;
  Net.Network.run_until sh.net h

(* One round across all shards.  Workers pull shard indices from a
   shared counter; assignment order cannot influence results because a
   shard is touched by exactly one domain per round and shards share no
   mutable state within a round. *)
let parallel_round t ~workers h =
  let n = Array.length t.shards in
  let w = Stdlib.min workers n in
  if w <= 1 then
    for i = 0 to n - 1 do
      round_body h t.shards.(i)
    done
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
    Mailbox.exchange t.mails ~owner:t.part.Partition.owner;
    if h >= until then continue := false
  done
