type t = {
  id : Packet.addr;
  pool : Packet.Pool.t;
  routes : (Packet.addr, Link.t) Hashtbl.t;
  mcast : (Packet.group, Link.t list ref) Hashtbl.t;
  groups : (Packet.group, unit) Hashtbl.t;
  handlers : (Packet.flow, Packet.t -> unit) Hashtbl.t;
  mutable undeliverable : int;
}

let create ~pool id =
  {
    id;
    pool;
    routes = Hashtbl.create 16;
    mcast = Hashtbl.create 4;
    groups = Hashtbl.create 4;
    handlers = Hashtbl.create 8;
    undeliverable = 0;
  }

let id t = t.id

let set_route t ~dest link = Hashtbl.replace t.routes dest link

let route t ~dest = Hashtbl.find_opt t.routes dest

let add_mcast_route t ~group link =
  match Hashtbl.find_opt t.mcast group with
  | None -> Hashtbl.replace t.mcast group (ref [ link ])
  | Some links ->
      if not (List.exists (fun l -> Link.id l = Link.id link) !links) then
        links := !links @ [ link ]

let mcast_routes t ~group =
  match Hashtbl.find_opt t.mcast group with None -> [] | Some l -> !l

let join t ~group = Hashtbl.replace t.groups group ()

let joined t ~group = Hashtbl.mem t.groups group

let attach t ~flow handler = Hashtbl.replace t.handlers flow handler

(* The per-packet lookups below use [Hashtbl.find] with an exception
   case instead of [find_opt], so no [Some] cell is built per hop
   ([Not_found] is a constant exception; raising it allocates
   nothing). *)

(* Handlers may read the packet for the duration of the call only; the
   caller still owns the reference and releases (or forwards) it after
   the handler returns. *)
let deliver_local t pkt =
  match Hashtbl.find t.handlers pkt.Packet.flow with
  | handler -> handler pkt
  | exception Not_found -> t.undeliverable <- t.undeliverable + 1

(* Multicast fan-out without per-packet closures: one extra reference
   per branch beyond the first, then one send per branch. *)
let rec retain_per_branch pkt = function
  | [] -> ()
  | _ :: rest ->
      Packet.Pool.retain pkt;
      retain_per_branch pkt rest

let rec send_each pkt = function
  | [] -> ()
  | link :: rest ->
      Link.send link pkt;
      send_each pkt rest

(* [receive] owns one reference to [pkt] and settles it on every path:
   terminal deliveries (and undeliverable packets) release it back to
   the pool, each forwarding [Link.send] consumes one reference, and a
   multicast fan-out over [n] links retains [n - 1] extra references
   up front so every branch owns its own claim on the shared record. *)
(* lint: hot receive -- every packet arrival at every node; route and
   handler lookups build no option and the fan-out no closure *)
let receive t pkt =
  match pkt.Packet.dst with
  | Packet.Unicast a when a = t.id ->
      deliver_local t pkt;
      Packet.Pool.release t.pool pkt
  | Packet.Unicast a -> (
      match Hashtbl.find t.routes a with
      | link -> Link.send link pkt
      | exception Not_found ->
          t.undeliverable <- t.undeliverable + 1;
          Packet.Pool.release t.pool pkt)
  | Packet.Multicast g -> (
      if joined t ~group:g then deliver_local t pkt;
      match Hashtbl.find t.mcast g with
      | exception Not_found -> Packet.Pool.release t.pool pkt
      | links -> (
          match !links with
          | [] -> Packet.Pool.release t.pool pkt
          | [ link ] -> Link.send link pkt
          | first :: rest ->
              retain_per_branch pkt rest;
              Link.send first pkt;
              send_each pkt rest))

(* Routes, multicast branches, group membership and flow handlers are
   topology wiring, rebuilt deterministically by the experiment setup;
   the undeliverable count is the node's only simulation state. *)
let capture t = t.undeliverable

let restore t n = t.undeliverable <- n

module For_testing = struct
  let mcast_routes = mcast_routes
  let joined = joined
end
