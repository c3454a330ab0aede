(** Discrete-event scheduler.

    Time is a [float] in seconds.  Events are closures fired in
    nondecreasing time order; simultaneous events fire in scheduling
    order.  Events can be cancelled through the handle returned at
    scheduling time (used for retransmission timers). *)

type t

type event_id = int
(** Handle for cancelling a scheduled event.  The representation is
    public so checkpoint codecs can serialize pending-event ownership;
    ids are dense, start at 0 and never repeat within a run. *)

val create : unit -> t

val now : t -> float
(** Current simulated time (seconds). *)

val schedule_at : t -> float -> (unit -> unit) -> event_id
(** [schedule_at t time f] fires [f] at absolute [time].  Scheduling in
    the past, or at a non-finite time (NaN or infinite, which would
    poison the heap ordering), raises [Invalid_argument]. *)

val schedule_after : t -> float -> (unit -> unit) -> event_id
(** [schedule_after t delay f] fires [f] [delay] seconds from now.
    Raises [Invalid_argument] on a negative or non-finite delay. *)

val cancel : t -> event_id -> unit
(** Cancel a pending event.  Cancelling an event that already fired,
    was already cancelled, or never existed is a strict no-op: it
    neither perturbs {!For_testing.pending} nor affects any other event.

    Cancellation is lazy: the entry stays queued (and is later popped
    as a [`Skipped] step) until the cancelled entries outnumber the
    pending ones by more than a fixed floor, when the queue is
    compacted ({!Heap.compact}) and every cancelled closure is
    released.  Compaction allocates nothing and never changes which
    events fire or in what order: the order is a function of the
    pending events' unique [(time, id)] keys alone. *)

val firing : t -> event_id
(** Id of the event whose action is running now; [-1] between events.
    A component that keeps several events in flight behind one shared
    closure reads it to tell which of them fired, instead of allocating
    a closure per event. *)

val run_until : t -> float -> unit
(** Execute events in order until the queue is empty or the next event
    is past the horizon; the clock ends at exactly the horizon. *)

val set_registry : t -> Obs.Registry.t option -> unit
(** Install (or remove, with [None]) a metrics registry.  With one
    installed, each fired event bumps the ["sim.events_fired"] counter,
    updates the ["sim.time"] gauge, and offers a decimated
    ["sim.heartbeat"] sample (simulated time vs events fired).  Probing
    is passive: it never schedules events, so runs are bit-identical
    with observability on or off. *)

val events_fired : t -> int
(** Total number of events executed so far. *)

(** {1 Checkpoint/restore}

    Closures cannot be serialized, so a checkpoint stores only the
    scheduler scalars plus the (id, fire-time) pairs of pending events.
    [restore] empties the queue and parks those pairs; each component
    that owns an event then calls {!rearm} to re-attach its closure
    under the original id, which reproduces the original pop order
    byte-for-byte (tie-break counters equal event ids).  {!unrestored}
    must be empty before the simulation is resumed. *)

type state = {
  s_clock : float;
  s_next_id : int;
  s_fired : int;
  s_pending : (event_id * float) list;  (** ascending id *)
}

val capture : t -> state
(** Pure read of the complete scheduler state; cancelled events are
    excluded (skipping them is side-effect-free). *)

val restore : t -> state -> unit
(** Reset the scheduler to [state] with an empty queue; every pending
    id awaits a {!rearm} call from its owning component. *)

val rearm : t -> id:event_id -> (unit -> unit) -> unit
(** [rearm t ~id f] re-attaches closure [f] to restored pending event
    [id] at its captured fire time.  Raises [Invalid_argument] if [id]
    is not awaiting restore (double re-arm, or not pending in the
    checkpoint). *)

val unrestored : t -> event_id list
(** Restored pending ids not yet re-armed, ascending.  Non-empty after
    the components' re-arm pass means the checkpoint recorded an event
    no component claims — the caller must fail rather than resume. *)

module For_testing : sig
  (** The per-event step and the pending count, which the scheduler's
      contract and allocation tests observe directly. *)

  val step : t -> float -> [ `Fired | `Skipped | `Done ]
  (** Pop one event at or before the horizon: [`Fired] executed it,
      [`Skipped] discarded a lazily-cancelled entry that compaction had
      not yet removed (how many such steps a run takes is not part of
      the contract), [`Done] means the queue is exhausted or the next
      event lies beyond the horizon.  {!run_until} is built on this; it
      is the per-event hot path.  Its one
      allocation per event is the boxed fire time that becomes the clock
      (2 words: under dune's dev profile, which compiles with [-opaque],
      a float returned across modules is boxed); it must allocate nothing
      else. *)

  val pending : t -> int
  (** Number of pending (non-cancelled) events. *)
end
