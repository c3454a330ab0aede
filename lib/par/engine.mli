(** Conservative parallel-DES engine over a partitioned topology.

    Each part of a {!Partition.t} becomes a shard: a complete
    {!Net.Network.t} holding that part's nodes (at their global
    addresses) and intra-part links.  Every cut edge becomes a pair of
    {e portal} links — real {!Net.Link.t}s with the cut edge's queue,
    bandwidth and jitter but zero propagation delay — whose delivery
    callback serializes the packet into the owning shard's outbox
    instead of a peer node; the cut edge's propagation delay is paid on
    the receiving side as the message arrival time.

    Execution proceeds in barrier rounds of width [L], the minimum
    propagation delay over all cut edges (the {e lookahead}).  Round
    [k] advances every shard from horizon [H_k] to [H_(k+1) = H_k + L]
    (events in [(H_k, H_(k+1)]]); a packet entering a portal at time
    [p] in that window arrives at [p + d >= p + L > H_(k+1)], so
    importing outbox messages only at the barrier can never deliver a
    message into a shard's past.  At each barrier, messages are merged
    per destination shard in ([arrival], source shard, per-shard
    sequence) order — an explicit total order — and scheduled before
    the next round starts.

    Determinism: shard construction, the round schedule, the merge
    order and every intra-shard event sequence are pure functions of
    the topology, partition and seed.  Worker domains only decide
    {e which CPU} runs a shard's round, never the order of events
    inside it, so results are byte-identical for any worker count —
    including fully sequential execution. *)

type t

type error = Zero_delay_cut of { u : int; v : int }
    (** A cut edge with non-positive propagation delay gives zero
        lookahead: the round width would be zero and the conservative
        protocol cannot advance.  Re-partition so the offending edge is
        interior, or give it a real delay. *)

val create :
  topo:Net.Topo.t ->
  partition:Partition.t ->
  ?seed:int ->
  ?registries:bool ->
  unit ->
  (t, error) result
(** Build one network per part ([seed] perturbed per shard), nodes at
    global addresses, intra-part duplex links in topology edge order,
    and portal link pairs for every cut edge.  [registries] installs a
    fresh {!Obs.Registry.t} per shard (portals included).  With no cut
    edges the lookahead is [infinity] and {!run} degenerates to one
    sequential round per call. *)

val shards : t -> int
val lookahead : t -> float
val rounds : t -> int
(** Barrier rounds completed so far. *)

val events_fired : t -> int
(** Sum of the per-shard scheduler counters. *)

val owner : t -> int -> int
val shard_net : t -> int -> Net.Network.t
val shard_registry : t -> int -> Obs.Registry.t option

val link_for : t -> int -> int -> Net.Link.t option
(** The directed link [u -> v]: an intra-shard link or a portal. *)

val install_route : t -> at:int -> dest:int -> next:int -> unit
(** Route [dest] at node [at] via the link to neighbor [next] (portal
    or local).  Raises [Invalid_argument] if no such link exists. *)

val install_toward : t -> parents:int array -> dest:int -> unit
(** Given a BFS parent forest rooted at [dest], route [dest] at every
    reachable node via its parent. *)

val install_path : t -> int list -> unit
(** Routes along an explicit node path: forward hops toward the last
    node, reverse hops toward the first. *)

val install_mcast_branch : t -> group:int -> int list -> unit
(** Add multicast forwarding for [group] along consecutive path links
    (idempotent per link — shared branch prefixes are safe). *)

val join : t -> group:int -> int -> unit

val run : t -> until:float -> workers:int -> unit
(** Advance every shard to [until] in lookahead-wide barrier rounds.
    [workers] caps the OCaml domains used per round (clamped to the
    shard count; [<= 1] runs sequentially in the calling domain) and
    has no observable effect on simulation results.  Raises
    [Invalid_argument] if [until] precedes the current horizon. *)
