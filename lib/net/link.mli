(** Unidirectional link: buffer + transmitter + propagation delay.

    A packet offered to the link first passes the queue discipline.
    Admitted packets wait in a FIFO buffer; the transmitter serializes
    one packet at a time at the configured bandwidth and hands it to
    the [deliver] callback after the propagation delay.

    When [phase_jitter] is on, a uniform random processing delay of up
    to one packet service time is added before delivery, implementing
    the paper's phase-effect elimination for drop-tail gateways
    (section 3.1).  Delivery stays FIFO regardless of jitter: a
    packet's delivery time is clamped to be no earlier than the
    previously scheduled delivery on the same link, so mixed packet
    sizes (e.g. 40 B ACKs behind 1000 B data) cannot be reordered.

    Links can be reconfigured at runtime for fault injection:
    {!set_down}/{!set_up} toggle the carrier (a down link counts every
    offer — and whatever it was holding — as dropped), and
    {!set_bandwidth}/{!set_delay} change the service rate and
    propagation delay mid-run without reordering deliveries (the FIFO
    clamp above still applies). *)

type t

type config = {
  bandwidth_bps : float;  (** Bits per second. *)
  prop_delay : float;  (** Seconds, one-way. *)
  queue : Queue_disc.kind;
  capacity : int;  (** Buffer size in packets. *)
  phase_jitter : bool;
}

type stats = {
  offered : int;  (** Packets offered to the link. *)
  dropped : int;  (** Packets rejected by the discipline/buffer. *)
  delivered : int;  (** Packets handed to the far end. *)
  bytes_delivered : int;
  marked : int;  (** Packets ECN-marked by the discipline. *)
}

val create :
  sched:Sim.Scheduler.t ->
  rng:Sim.Rng.t ->
  pool:Packet.Pool.t ->
  id:string ->
  config ->
  deliver:(Packet.t -> unit) ->
  t
(** [pool] receives every packet the link drops; admitted packets carry
    their reference through to the [deliver] callback, which assumes
    ownership. *)

val send : t -> Packet.t -> unit
(** Offer a packet; drops are counted, not signalled to the caller
    (endpoints learn about losses end-to-end, as in the real network).
    The caller's reference transfers to the link: a dropped packet is
    released back to the pool after the drop hook runs, a delivered one
    is handed on to the [deliver] callback. *)

val id : t -> string

val config : t -> config
(** Current configuration (reflects runtime reconfiguration). *)

val qlen : t -> int
(** Packets currently waiting (excludes the one in service). *)

val busy : t -> bool

val stats : t -> stats

val reset_stats : t -> unit

val service_time : t -> int -> float
(** [service_time t size] is the transmission time of [size] bytes. *)

val set_drop_hook : t -> (Packet.t -> unit) -> unit
(** Called on every packet the link drops (for experiment probes). *)

val set_registry : t -> Obs.Registry.t option -> unit
(** Install (or remove) a metrics registry on this link and its queue
    discipline.  Exposes a ["link.<id>.qlen"] occupancy series (sampled
    on every arrival), ["link.<id>.drops"] / ["link.<id>.marks"] /
    ["link.<id>.delivered"] counters, [drop]/[mark] events on the
    registry's taps, and RED's ["red.<id>.avg_queue"] estimate.
    Passive: behaviour and RNG use are unchanged. *)

(** {2 Runtime reconfiguration (fault injection)} *)

val is_up : t -> bool
(** Carrier state; links are created up. *)

val set_down : t -> unit
(** Take the link down.  The packet currently being serialized is
    aborted and every queued packet is flushed; all of them are counted
    in [stats.dropped] (and fed to the drop hook).  Packets already
    past serialization are on the wire and still arrive.  While down,
    every {!send} is rejected and counted as dropped — the queue
    discipline is bypassed entirely (no RED bookkeeping, no RNG
    draws).  Idempotent. *)

val set_up : t -> unit
(** Restore the carrier.  Transmission resumes with the next offered
    packet.  Idempotent. *)

val downtime : t -> float
(** Cumulative seconds this link has spent down (including the current
    outage, if one is in progress). *)

val set_bandwidth : t -> float -> unit
(** Change the service rate mid-run.  The packet currently in service
    completes at the rate it started with; later packets serialize at
    the new rate.  Deliveries stay FIFO (the per-link delivery clamp
    still applies).  Raises [Invalid_argument] unless positive. *)

val set_delay : t -> float -> unit
(** Change the one-way propagation delay.  Applies to every packet
    whose serialization completes after the change; packets already
    propagating keep their old delay.  Shrinking the delay cannot
    reorder deliveries: each delivery is clamped to be no earlier than
    the previously scheduled one.  Raises [Invalid_argument] when
    negative. *)

(** {2 Checkpoint/restore} *)

type state = {
  s_bandwidth_bps : float;
  s_prop_delay : float;
  s_buffer : Packet.t list;  (** FIFO order, head of line first *)
  s_busy : bool;
  s_in_service : Packet.t option;
  s_tx_event : Sim.Scheduler.event_id option;
  s_inflight : (Sim.Scheduler.event_id * Packet.t) list;
      (** packets past serialization, keyed by delivery event id *)
  s_up : bool;
  s_down_since : float;
  s_downtime_acc : float;
  s_last_delivery : float;
  s_offered : int;
  s_dropped : int;
  s_delivered : int;
  s_bytes_delivered : int;
  s_marked : int;
  s_rng : int64;
  s_disc : Queue_disc.state;
}

val capture : t -> state
(** Pure read of the complete link state, including the shared
    link/discipline RNG and every delivery still on the wire. *)

val restore : t -> state -> unit
(** Overwrite the link with a captured state and re-arm its pending
    events (tx completion, in-flight deliveries) under their original
    ids.  Must run after [Sim.Scheduler.restore] on the same
    scheduler. *)
