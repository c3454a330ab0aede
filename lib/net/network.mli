(** Network assembly: nodes, duplex links, routing, multicast trees.

    This is the top-level substrate object an experiment builds once:
    it owns the scheduler, the root RNG (every component receives a
    {!Sim.Rng.split} of it, so runs are reproducible from one seed),
    and allocators for flow and packet identifiers. *)

type t

val create : ?seed:int -> unit -> t
(** Fresh empty network; [seed] defaults to 1. *)

val scheduler : t -> Sim.Scheduler.t

val pool : t -> Packet.Pool.t
(** The network-wide packet pool; every node and link recycles through
    it. *)

val fork_rng : t -> Sim.Rng.t
(** An independent RNG stream. *)

val set_registry : t -> Obs.Registry.t option -> unit
(** Install (or remove) a metrics registry: the scheduler and every
    link — existing and created later — pick it up, and components
    built afterwards (TCP and RLA senders) read {!observer} at creation
    time.  Instrumentation is passive (no scheduled events, no RNG
    draws), so runs are bit-identical with or without a registry. *)

val observer : t -> Obs.Registry.t option
(** The currently installed registry, if any. *)

val now : t -> float

val add_node : t -> Node.t
(** Create a node with the next free address. *)

val add_node_at : t -> Packet.addr -> Node.t
(** Create a node at an explicit address, leaving any skipped addresses
    as gaps ([node] raises [Not_found] for them).  This lets a shard of
    a partitioned topology keep global addresses locally.  Sparse
    networks cannot be captured (see {!capture}).  Raises
    [Invalid_argument] if the address is negative or occupied. *)

val node : t -> Packet.addr -> Node.t
(** Raises [Not_found] for an unknown or gap address. *)

val duplex : t -> Packet.addr -> Packet.addr -> Link.config -> Link.t * Link.t
(** [duplex t a b config] connects [a] and [b] with two mirror-image
    links; returns [(a->b, b->a)]. *)

val link_between : t -> Packet.addr -> Packet.addr -> Link.t option
(** The directed link from the first to the second address, if any. *)

val links : t -> Link.t list
(** All links, in creation order. *)

val install_routes : t -> unit
(** Fill every node's unicast table with shortest (hop-count) paths.
    Call after the topology is complete; idempotent. *)

val install_multicast : t -> group:Packet.group -> src:Packet.addr -> members:Packet.addr list -> unit
(** Build the distribution tree for [group] as the union of the unicast
    shortest paths from [src] to each member, and [Node.join] every
    member.  Requires {!install_routes} to have run. *)

val graft_multicast : t -> group:Packet.group -> src:Packet.addr -> member:Packet.addr -> unit
(** Add one member to an existing distribution tree (runtime membership
    churn): join it at its node and add the shortest-path branch from
    [src].  Idempotent — grafting a current member changes nothing. *)

val fresh_flow : t -> Packet.flow

val set_flow_base : t -> Packet.flow -> unit
(** Raise the flow allocator so subsequent {!fresh_flow} calls start at
    [base] — shards of a parallel run use disjoint bases so flow ids
    stay globally unique.  Raises [Invalid_argument] if flows at or
    beyond [base] were already allocated. *)

val fresh_group : t -> Packet.group

val make_packet :
  t ->
  flow:Packet.flow ->
  src:Packet.addr ->
  dst:Packet.dest ->
  size:int ->
  payload:Packet.payload ->
  Packet.t
(** A pooled packet stamped with the current time and a fresh uid; the
    caller owns its single reference (normally settled by passing it to
    {!send}). *)

val send : t -> Packet.t -> unit
(** Inject a packet at its source node; consumes the caller's packet
    reference. *)

val import_packet :
  t ->
  flow:Packet.flow ->
  src:Packet.addr ->
  dst:Packet.dest ->
  size:int ->
  payload:Packet.payload ->
  born:float ->
  ecn:bool ->
  Packet.t
(** Materialize a packet that originated on another network (a
    different shard of a parallel run): a fresh local uid, with the
    original flow, endpoints, birth time and ECN mark preserved.  The
    caller owns the single reference. *)

val run_until : t -> float -> unit

val path : t -> Packet.addr -> Packet.addr -> Link.t list
(** Links traversed by unicast traffic between the two addresses
    (empty if equal or unrouted). *)

(** {2 Checkpoint/restore} *)

type state = {
  s_root_rng : int64;
  s_next_flow : int;
  s_next_group : int;
  s_next_uid : int;
  s_nodes : int list;  (** per-node undeliverable counts, by address *)
  s_links : Link.state list;  (** in {!links} (creation) order *)
}

val capture : t -> state
(** Pure read of all mutable network state.  The scheduler is captured
    separately ([Sim.Scheduler.capture]); topology is not serialized at
    all — restore targets an identically rebuilt network.  Raises
    [Invalid_argument] on a sparse network (gap addresses from
    {!add_node_at}): shard-local slices are not capturable. *)

val restore : t -> state -> unit
(** Overwrite mutable state on a network rebuilt by the same
    deterministic setup (same node/link creation order).  Links re-arm
    their pending events, so [Sim.Scheduler.restore] must have run
    first.  Raises [Invalid_argument] on a node/link count mismatch. *)

module For_testing : sig
  (** The adjacency lists in link-creation order, which BFS routing reads
      and the routing-determinism test pins. *)

  val neighbors : t -> Packet.addr -> Packet.addr list
  (** Nodes with a directed link from the given address, in link
      creation order (stable, duplicate-free). *)
end
