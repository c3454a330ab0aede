(** Applies a {!Timeline} to a running simulation.

    [install] schedules every timeline entry on the network's
    scheduler (entries in the past fire immediately, in timeline
    order).  Link events act directly on both directions of the named
    duplex pair; membership and flow-churn events go through the
    [handlers] the experiment supplies, because the injector does not
    know about RLA sessions or TCP senders.

    Determinism: the injector schedules all its events at install time
    from a fixed timeline and never draws from any RNG, so for a given
    seed and timeline a run is bit-identical across repeats and worker
    counts.  With a metrics registry installed on the network, the
    injector additionally publishes ["faults.injected"] /
    ["faults.skipped"] / ["faults.outages"] counters, a
    ["faults.membership"] gauge, a cumulative ["faults.downtime_s"]
    gauge, and one registry event per applied entry (source
    ["faults"]); this probing is passive and does not perturb the
    run. *)

type handlers = {
  on_receiver_leave : Net.Packet.addr -> bool;
      (** Drop the receiver from the multicast session; [false] when
          the address is unknown or already gone. *)
  on_receiver_join : Net.Packet.addr -> bool;
      (** (Re-)join the receiver; [false] when already a member. *)
  on_flow_start : id:int -> dst:Net.Packet.addr -> bool;
      (** Start a competing flow under the script-scoped [id]. *)
  on_flow_stop : id:int -> bool;
  on_rst_inject : flow:int -> dst:Net.Packet.addr -> seq:int -> bool;
      (** Forge a blind RST into [flow] at [dst] (usually routed to an
          [Adversary.Blind] attacker node); [false] when unhandled. *)
  on_data_inject : flow:int -> dst:Net.Packet.addr -> seq:int -> bool;
      (** Forge a blind junk-data segment into [flow] at [dst]. *)
  membership : unit -> int;
      (** Current active receiver count; leaves that would take it to 0
          are skipped (a session cannot lose its last receiver). *)
}

val null_handlers : handlers
(** Rejects every membership/flow event (link faults still work). *)

type applied = {
  time : float;
  event : Timeline.event;
  ok : bool;  (** [false] when the event was skipped (guard refused, no
                  such link, redundant toggle). *)
}

type t

val install :
  net:Net.Network.t -> ?handlers:handlers -> Timeline.t -> t
(** Schedule the whole timeline against [net]'s scheduler.  Call after
    the topology exists and before (or during) the run. *)

val applied : t -> applied list
(** Entries that have fired so far, in application order. *)

val injected : t -> int

val outages : t -> int
(** Link-down events that actually took an up link down. *)

val skipped : t -> int

val downtime : t -> float
(** Cumulative outage seconds summed over the duplex pairs this
    injector has taken down (in-progress outages included). *)

type state = {
  s_log : applied list;  (** reverse application order *)
  s_outages : int;
  s_skipped : int;
  s_touched : Timeline.link list;
  s_pending : (Sim.Scheduler.event_id * int) list;
      (** not-yet-fired entries as [(event id, timeline-entry index)],
          ascending id *)
}

val capture : t -> state

val restore : t -> state -> unit
(** Overwrite the injector's progress and re-arm every not-yet-fired
    timeline entry under its original event id.  The injector must
    have been installed from the same timeline; must run after
    [Sim.Scheduler.restore]. *)
