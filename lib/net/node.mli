(** Network node: endpoint dispatch + unicast/multicast forwarding.

    A node delivers packets addressed to it (or to a multicast group it
    joined) to the handler registered for the packet's flow, and
    forwards everything else along its routing tables.  Routing tables
    are filled in by {!Network} after the topology is built. *)

type t

val create : pool:Packet.Pool.t -> Packet.addr -> t
(** [pool] settles the references of packets this node terminates
    (local delivery, undeliverable). *)

val id : t -> Packet.addr

val set_route : t -> dest:Packet.addr -> Link.t -> unit
(** Next-hop link for unicast traffic towards [dest]. *)

val route : t -> dest:Packet.addr -> Link.t option

val add_mcast_route : t -> group:Packet.group -> Link.t -> unit
(** Add an outgoing branch of the distribution tree for [group];
    duplicates are ignored. *)

val join : t -> group:Packet.group -> unit
(** Become a local receiver of [group]'s traffic. *)

val attach : t -> flow:Packet.flow -> (Packet.t -> unit) -> unit
(** Register the endpoint handler for [flow]; replaces any previous
    handler for the same flow. *)

val receive : t -> Packet.t -> unit
(** Entry point for packets arriving at (or originating from) this
    node: local delivery and/or forwarding.  Consumes the caller's
    packet reference: terminal packets are released back to the pool
    after the flow handler returns (handlers must not stash the
    record), forwarded ones transfer their reference to the links —
    a multicast fan-out retains one extra reference per additional
    branch first. *)

val capture : t -> int
(** The undeliverable count — the node's only simulation state (routing
    tables and handlers are wiring, rebuilt by the experiment setup). *)

val restore : t -> int -> unit

module For_testing : sig
  (** Group membership and the multicast routing table, which the node
      tests read directly. *)

  val mcast_routes : t -> group:Packet.group -> Link.t list

  val joined : t -> group:Packet.group -> bool
end
