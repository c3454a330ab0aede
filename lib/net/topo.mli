(** Pure topology descriptions for generated scenarios.

    A [Topo.t] is just data: node count plus an ordered edge list,
    each edge carrying the {!Link.config} its duplex link will use.
    Generators are deterministic — the same parameters (and, for
    {!random_graph}, the same seed) always produce the same topology,
    byte for byte — so a topology can be rebuilt identically on every
    shard of a parallel run.  Nothing here touches a scheduler, a
    network or ambient randomness. *)

type edge = {
  u : int;
  v : int;
  config : Link.config;  (** Applied to both directions of the duplex link. *)
}

type t = {
  n : int;  (** Nodes are addressed [0 .. n-1]. *)
  edges : edge list;  (** Creation order; no self-loops, no duplicates. *)
}

val of_edges : n:int -> (int * int * Link.config) list -> t
(** Explicit construction.  Raises [Invalid_argument] on a self-loop,
    an out-of-range endpoint, or a duplicate edge (in either
    orientation). *)

val kary : fanout:int -> depth:int -> configs:Link.config array -> t
(** Complete [fanout]-ary tree of the given [depth] (depth 0 is a
    single root).  Node 0 is the root; node [i]'s children are
    [i*fanout + 1 .. i*fanout + fanout] in level order, so the tree has
    [(fanout^(depth+1) - 1) / (fanout - 1)] nodes and one edge per
    non-root node, listed in child-index order.  The edge into a
    depth-[d] node uses [configs.(min (d-1) (Array.length configs - 1))],
    i.e. one config per level with the last entry repeating.  Raises
    [Invalid_argument] if [fanout < 2], [depth < 0] or [configs] is
    empty. *)

val fat_tree : k:int -> configs:Link.config array -> t
(** Standard 3-layer fat-tree on even port count [k]: [k^2/4] core
    switches, [k] pods of [k/2] aggregation + [k/2] edge switches, and
    [k/2] hosts per edge switch — [k^2/4 + k^2 + k^3/4] nodes and
    [3k^3/4] edges.  [configs] is indexed by layer: [0] core-agg,
    [1] agg-edge, [2] edge-host (the last entry repeats if fewer are
    given).  Raises [Invalid_argument] if [k] is odd or [< 2], or
    [configs] is empty. *)

val random_graph : seed:int -> n:int -> extra:int -> configs:Link.config array -> t
(** Connected seeded random graph: a random spanning tree (node [i]
    attaches to a uniform earlier node) plus up to [extra] additional
    distinct non-self edges; each edge draws its config uniformly from
    [configs].  All randomness comes from a private [Sim.Rng] seeded
    with [seed], so the result is reproducible.  Raises
    [Invalid_argument] if [n < 1], [extra < 0] or [configs] is
    empty. *)

val node_count : t -> int
val edge_count : t -> int

val leaves : t -> int list
(** Degree-1 nodes, ascending. *)

val connected : t -> bool

val bfs_parents : t -> root:int -> int array
(** [parents.(root) = root]; unreachable nodes get [-1].  Neighbors
    are visited in edge-insertion order, so the forest is deterministic. *)

val path_to_root : parents:int array -> int -> int list
(** [path_to_root ~parents v] is [v; parent v; ...; root].  Raises
    [Invalid_argument] if [v] is unreachable ([parents.(v) = -1]). *)

val tree_path : parents:int array -> int -> int -> int list
(** Unique tree path [a; ...; b] through the BFS forest (via the
    lowest common ancestor).  Raises [Invalid_argument] if either end
    is unreachable. *)
