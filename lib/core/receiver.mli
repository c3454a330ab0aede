(** RLA receiver endpoint.

    Joins the session's multicast group at its node, consumes data
    (original transmissions arriving down the tree and retransmissions
    arriving by multicast or unicast), and acknowledges every data
    packet by unicast to the sender using the SACK format. *)

type t

val create :
  net:Net.Network.t ->
  node:Net.Packet.addr ->
  flow:Net.Packet.flow ->
  sender:Net.Packet.addr ->
  ?ack_jitter:float ->
  ?start:int ->
  unit ->
  t
(** [ack_jitter] (default 2 ms) delays each acknowledgment by a uniform
    random processing time, desynchronising the ack bursts that a
    multicast delivery triggers across equal-RTT receivers (see
    {!Params.ack_jitter}).

    [start] (default 0) is the first sequence number this endpoint is
    responsible for: a receiver joining a running session acknowledges
    from the sender's current frontier instead of waiting forever for
    packets sent before it existed.  Replaces any handler a previous
    endpoint for the same flow had registered at the node. *)

type state = {
  s_rng : int64;
  s_ooo : int list;  (** out-of-order set, ascending *)
  s_recent : int list;  (** SACK block representatives, recency order *)
  s_expected : int;
  s_received_total : int;
  s_duplicates : int;
  s_rexmits_received : int;
  s_pending_acks : (Sim.Scheduler.event_id * float * bool) list;
      (** delayed acks in flight: [(event id, echo, ece)], ascending id.
          The cum/SACK snapshot happens at fire time, so only these two
          payload inputs need capturing. *)
}

val capture : t -> state

val restore : t -> state -> unit
(** Overwrite the endpoint state and re-arm pending delayed-ack events
    under their original ids.  Must run after [Sim.Scheduler.restore]. *)

module For_testing : sig
  (** Which node an endpoint listens at, to pick one receiver's endpoint
      out of the sender's list. *)

  val node_id : t -> Net.Packet.addr
end
