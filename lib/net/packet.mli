(** Simulated packets.

    A packet carries an extensible [payload] so each transport protocol
    (TCP, RLA, the rate-based baselines) defines its own header type
    without this module depending on any of them.

    Packet records are recycled through {!Pool} so per-hop forwarding
    stops allocating: fields are mutable only for the pool's benefit,
    and outside the pool a packet is read-only (a link may flip [ecn]
    while it holds the sole reference).  Ownership is counted in
    [refs]: whoever holds a packet owns one reference, handing it on
    (e.g. [Link.send], the deliver callback) transfers that reference,
    and the terminal owner releases it back to the pool. *)

type addr = int
(** Node identifier. *)

type group = int
(** Multicast group identifier. *)

type flow = int
(** Flow (connection/session) identifier; used to dispatch a delivered
    packet to the right endpoint agent. *)

type dest = Unicast of addr | Multicast of group

type payload = ..
(** Extensible: each protocol adds its own constructors. *)

type payload += Raw
(** Payload-free filler traffic. *)

type t = {
  mutable uid : int;  (** Unique per network; never reused. *)
  mutable flow : flow;
  mutable src : addr;
  mutable dst : dest;
  mutable size : int;  (** Bytes, headers included. *)
  mutable payload : payload;
  mutable born : float;
      (** Creation time, for end-to-end delay accounting. *)
  mutable ecn : bool;
      (** Congestion-experienced mark: set by an ECN-enabled RED
          gateway instead of dropping; echoed back by receivers so
          senders can react without packet loss. *)
  mutable refs : int;
      (** Owner count; managed through {!Pool.retain}/{!Pool.release}.
          Mutability of every field above is for {!Pool} recycling
          only — treat packets as read-only. *)
}

(** Free-list recycling of packet records.

    Rules: a handler or hook invoked with a packet may read it for the
    duration of the call but must not stash the record itself (copy the
    fields out instead) — after the call returns the owner releases the
    packet and the record may be recycled for a different packet.
    [release] on the last reference resets [payload] to {!Raw} so
    recycled records keep no protocol header alive. *)
module Pool : sig
  type pkt = t

  type t

  val dummy_pkt : pkt
  (** Inert never-sent filler (uid -1, zero references) for slots that
      need a packet value, e.g. ring-buffer dummies. *)

  val create : unit -> t

  val acquire :
    t ->
    uid:int ->
    flow:flow ->
    src:addr ->
    dst:dest ->
    size:int ->
    payload:payload ->
    born:float ->
    pkt
  (** A packet with one reference, recycled from the free list when
      possible; [ecn] starts false. *)

  val acquire_copy : t -> pkt -> pkt
  (** Private copy of a packet (same uid, all fields) with one
      reference — the copy-on-write step for marking a shared packet. *)

  val retain : pkt -> unit
  (** Add a reference (multicast fan-out holds one per outgoing link). *)

  val release : t -> pkt -> unit
  (** Drop a reference; the last release returns the record to the free
      list.  Raises [Invalid_argument] on a packet with no outstanding
      references (double release). *)

  val free_count : t -> int
  (** Records currently waiting for reuse. *)

  val allocated : t -> int
  (** Fresh records ever built (pool misses). *)

  val recycled : t -> int
  (** Acquisitions served from the free list (pool hits). *)
end
