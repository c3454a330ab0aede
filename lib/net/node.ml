(* Addresses, groups and flows are small ints, so the per-hop tables
   hash a key by plain arithmetic instead of calling the generic
   [caml_hash].  No table is enumerated, so their order cannot leak. *)
module Tbl = Hashtbl.Make (struct
  type t = int
  let equal = Int.equal
  let hash a = a land max_int
end)

type t = {
  id : Packet.addr;
  pool : Packet.Pool.t;
  routes : Link.t Tbl.t;
  mcast : Link.t list Tbl.t;
  groups : unit Tbl.t;
  handlers : (Packet.t -> unit) Tbl.t;
  mutable undeliverable : int;
}

let create ~pool id =
  {
    id;
    pool;
    routes = Tbl.create 16;
    mcast = Tbl.create 4;
    groups = Tbl.create 4;
    handlers = Tbl.create 8;
    undeliverable = 0;
  }

let id t = t.id

let set_route t ~dest link = Tbl.replace t.routes dest link

let route t ~dest = Tbl.find_opt t.routes dest

let mcast_routes t ~group =
  Option.value (Tbl.find_opt t.mcast group) ~default:[]

let add_mcast_route t ~group link =
  let links = mcast_routes t ~group in
  if not (List.exists (fun l -> Link.id l = Link.id link) links) then
    Tbl.replace t.mcast group (links @ [ link ])

let join t ~group = Tbl.replace t.groups group ()

let joined t ~group = Tbl.mem t.groups group

let attach t ~flow handler = Tbl.replace t.handlers flow handler

(* The per-packet lookups below use [Tbl.find] with an exception
   case instead of [find_opt], so no [Some] cell is built per hop
   ([Not_found] is a constant exception; raising it allocates
   nothing). *)

(* Handlers may read the packet for the duration of the call only; the
   caller still owns the reference and releases (or forwards) it after
   the handler returns. *)
let deliver_local t pkt =
  match Tbl.find t.handlers pkt.Packet.flow with
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
      match Tbl.find t.routes a with
      | link -> Link.send link pkt
      | exception Not_found ->
          t.undeliverable <- t.undeliverable + 1;
          Packet.Pool.release t.pool pkt)
  | Packet.Multicast g -> (
      if joined t ~group:g then deliver_local t pkt;
      match Tbl.find t.mcast g with
      | exception Not_found -> Packet.Pool.release t.pool pkt
      | [] -> Packet.Pool.release t.pool pkt
      | [ link ] -> Link.send link pkt
      | first :: rest ->
          retain_per_branch pkt rest;
          Link.send first pkt;
          send_each pkt rest)

(* Routes, multicast branches, group membership and flow handlers are
   topology wiring, rebuilt deterministically by the experiment setup;
   the undeliverable count is the node's only simulation state. *)
let capture t = t.undeliverable

let restore t n = t.undeliverable <- n

module For_testing = struct
  let mcast_routes = mcast_routes
  let joined = joined
end
