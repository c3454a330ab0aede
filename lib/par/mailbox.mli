(** Cross-shard packet transport of {!Engine}, with no allocation once
    its arrays have grown.

    Each shard owns one mailbox.  Its {e outbox} receives the packets
    the shard's portals deliver during a round, as struct-of-arrays
    entries in push (per-shard sequence) order.  At the barrier,
    {!exchange} routes every outbox entry to its destination shard and
    orders each destination's batch by ([arrival], source shard,
    sequence) with a stable merge.  At the next round start {!schedule}
    gives each fresh import one scheduler event, all sharing one action,
    and {!import} is that action.

    The {e import queue} holds a shard's pending imports in (arrival,
    admission) order, and its head is always the import that fires
    next.  The scheduler fires equal times in event-id order.  Imports
    admitted at an earlier barrier, still pending when cut delays
    differ, hold smaller ids, so they sort ahead of fresh imports with
    the same arrival. *)

type t

val create : Net.Network.t -> t
(** An empty mailbox for the shard that owns this network. *)

val push : t -> delay:float -> entry:int -> Net.Packet.t -> unit
(** A portal's deliver callback: append the packet's wire fields to the
    outbox, stamped [arrival = now + delay], to enter node [entry] on
    the receiving side; then release the packet to the sending pool. *)

val exchange : t array -> owner:int array -> unit
(** The barrier, on one domain: empty every outbox (indexed by shard)
    into the destination shards' import queues, [owner] mapping a
    global node address to its shard. *)

val schedule : t -> (unit -> unit) -> unit
(** Schedule the imports the last {!exchange} delivered to this shard,
    in merge order, each firing [action] at its arrival time.  [action]
    must be [fun () -> import t], one closure for the shard. *)

val import : t -> unit
(** Materialize the import queue's head in the shard's network and
    hand it to its entry node.  Under {!Sim.Invariant.enabled} it
    checks that the head arrives at the current clock. *)
