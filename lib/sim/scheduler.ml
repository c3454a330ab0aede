type event_id = int

(* The heap stores the event closures directly: event ids and the
   heap's tie-break counter both advance in lockstep from zero (and the
   restore path re-inserts under seq = id), so the counter of a popped
   entry IS the event id and no per-event id record is allocated. *)

(* Pending-or-not is one bit per event id in a growable bitmap —
   [Bytes] indexed by id — rather than a hash table: ids are dense and
   never reused, so the bitmap gives branch-cheap O(1) schedule, fire
   and cancel with no per-event allocation, at one bit per id ever
   issued.  [pending_count] is maintained on every transition, so
   cancelling a fired, unknown or already-cancelled id cannot drift the
   pending count (cancel is a strict no-op unless the bit is set). *)

(* Cached observability handles; [None] (the default) keeps the hot
   path to a single match.  Probing never schedules events, so the
   simulation is bit-identical with or without a registry. *)
type taps = {
  events_fired_c : Obs.Registry.counter;
  clock_g : Obs.Registry.gauge;
  heartbeat : Obs.Series.t;
}

(* [rearm_times] is non-empty only between [restore] and the end of the
   owning components' re-arm pass: it maps each restored pending id to
   its fire time until the component that owns the event re-attaches a
   closure via [rearm]. *)
type t = {
  queue : (unit -> unit) Heap.t;
  mutable flags : Bytes.t;  (* bit id = event id is pending *)
  mutable pending_count : int;
  is_pending : int -> bool;  (* [flag_is_set] on this scheduler, built once *)
  rearm_times : (int, float) Hashtbl.t;
  mutable clock : float;
  mutable next_id : int;
  mutable fired : int;
  mutable firing : int;  (* id of the event running now; -1 between events *)
  mutable taps : taps option;
}

let initial_flag_bytes = 1024

let flag_is_set t id =
  let byte = id lsr 3 in
  byte < Bytes.length t.flags
  && Char.code (Bytes.unsafe_get t.flags byte) land (1 lsl (id land 7)) <> 0

let create () =
  let rec t =
    {
      queue = Heap.create ();
      flags = Bytes.make initial_flag_bytes '\000';
      pending_count = 0;
      is_pending = (fun id -> flag_is_set t id);
      rearm_times = Hashtbl.create 16;
      clock = 0.0;
      next_id = 0;
      fired = 0;
      firing = -1;
      taps = None;
    }
  in
  t

let ensure_flag_capacity t id =
  let byte = id lsr 3 in
  let len = Bytes.length t.flags in
  if byte >= len then begin
    let new_len = Stdlib.max (2 * len) (byte + 1) in
    let grown = Bytes.make new_len '\000' in
    Bytes.blit t.flags 0 grown 0 len;
    t.flags <- grown
  end

let set_flag t id =
  ensure_flag_capacity t id;
  let byte = id lsr 3 in
  Bytes.unsafe_set t.flags byte
    (Char.chr (Char.code (Bytes.unsafe_get t.flags byte) lor (1 lsl (id land 7))))

let clear_flag t id =
  let byte = id lsr 3 in
  Bytes.unsafe_set t.flags byte
    (Char.chr
       (Char.code (Bytes.unsafe_get t.flags byte) land lnot (1 lsl (id land 7))))

let set_registry t reg =
  t.taps <-
    Option.map
      (fun r ->
        {
          events_fired_c = Obs.Registry.counter r "sim.events_fired";
          clock_g = Obs.Registry.gauge r "sim.time";
          heartbeat = Obs.Registry.series r "sim.heartbeat";
        })
      reg

let now t = t.clock

let firing t = t.firing

let schedule_at t time action =
  if not (Float.is_finite time) then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule_at: fire time %g is not finite" time);
  if time < t.clock then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule_at: %g is in the past (now %g)" time
         t.clock);
  let id = t.next_id in
  t.next_id <- id + 1;
  Heap.add t.queue ~prio:time action;
  set_flag t id;
  t.pending_count <- t.pending_count + 1;
  id

let schedule_after t delay action =
  if not (Float.is_finite delay) then
    invalid_arg
      (Printf.sprintf "Scheduler.schedule_after: delay %g is not finite" delay);
  schedule_at t (t.clock +. delay) action

(* Cancelled entries tolerated beyond the live ones before [cancel]
   compacts the heap; the floor keeps a nearly empty queue from
   compacting on every cancel.  A compaction costs O(heap length) and
   leaves no cancelled entry, and the next one needs at least
   [compact_floor] + 1 more cancels, which pay for it: amortized O(1)
   per cancel, and every cancel leaves at most twice as many entries
   as pending events, plus the floor. *)
let compact_floor = 64

(* lint: hot cancel -- every TCP ack restarts the retransmission timer
   through here; the compaction predicate is built once per scheduler *)
let cancel t id =
  if id >= 0 && id < t.next_id && flag_is_set t id then begin
    clear_flag t id;
    t.pending_count <- t.pending_count - 1;
    if Heap.length t.queue > (2 * t.pending_count) + compact_floor then begin
      Heap.compact t.queue ~keep:t.is_pending;
      if !Invariant.enabled then
        Invariant.require (Heap.length t.queue = t.pending_count) (fun () ->
            Printf.sprintf
              "Scheduler.cancel: %d entries survive compaction, %d pending"
              (Heap.length t.queue) t.pending_count)
    end
  end

(* Pop one event.  [`Fired] executed an event, [`Skipped] discarded a
   lazily-cancelled entry, [`Done] means the queue is exhausted or the
   next event lies beyond [horizon]. *)
(* lint: hot step -- fires every simulated event; the events/s number
   in BENCH_perf.json is mostly this function *)
let step t horizon =
  if Heap.is_empty t.queue || Heap.top_above t.queue horizon then `Done
  else begin
    (* Read the root's id, then pop just the closure.  A fired event's
       only allocation is the 2-word box [top_prio] returns its time in
       (dune's dev profile compiles with -opaque, so the call is not
       inlined); that box becomes the clock.  A cancelled entry is
       dropped without reading its time at all. *)
    let id = Heap.top_seq t.queue in
    if not (flag_is_set t id) then begin
      ignore (Heap.pop_top t.queue : unit -> unit);
      `Skipped
    end
    else begin
      let time = Heap.top_prio t.queue in
      let action = Heap.pop_top t.queue in
      clear_flag t id;
      t.pending_count <- t.pending_count - 1;
      if !Invariant.enabled then
        Invariant.require (time >= t.clock) (fun () ->
            Printf.sprintf
              "Scheduler.step: event %d fires at %g, before the clock %g" id
              time t.clock);
      t.clock <- time;
      t.fired <- t.fired + 1;
      (match t.taps with
      | None -> ()
      | Some taps ->
          Obs.Registry.incr taps.events_fired_c;
          Obs.Registry.set taps.clock_g time;
          Obs.Series.add taps.heartbeat ~time (float_of_int t.fired));
      t.firing <- id;
      action ();
      t.firing <- -1;
      `Fired
    end
  end

let run_until t horizon =
  let continue = ref true in
  while !continue do
    match step t horizon with `Fired | `Skipped -> () | `Done -> continue := false
  done;
  if horizon > t.clock then t.clock <- horizon

let pending t = t.pending_count

let events_fired t = t.fired

(* --- checkpoint/restore -------------------------------------------- *)

type state = {
  s_clock : float;
  s_next_id : int;
  s_fired : int;
  s_pending : (int * float) list;
}

(* Closures cannot be serialized, so a captured scheduler records only
   which events are pending and when they fire.  On restore each owning
   component re-attaches its closure through [rearm]; heap tie-break
   counters equal event ids (both advance in lockstep from zero), so
   re-inserting under seq = id reproduces the original pop order
   exactly.  Cancelled-but-unpopped heap entries are deliberately
   dropped: skipping them is side-effect-free. *)
let capture t =
  let pend =
    List.filter_map
      (fun (prio, seq, _) -> if flag_is_set t seq then Some (seq, prio) else None)
      (Heap.capture t.queue)
  in
  {
    s_clock = t.clock;
    s_next_id = t.next_id;
    s_fired = t.fired;
    s_pending = List.sort (fun (a, _) (b, _) -> Int.compare a b) pend;
  }

let restore t st =
  Heap.clear t.queue;
  Heap.set_next_seq t.queue st.s_next_id;
  Bytes.fill t.flags 0 (Bytes.length t.flags) '\000';
  ensure_flag_capacity t st.s_next_id;
  t.pending_count <- 0;
  Hashtbl.reset t.rearm_times;
  t.clock <- st.s_clock;
  t.next_id <- st.s_next_id;
  t.fired <- st.s_fired;
  List.iter (fun (id, at) -> Hashtbl.replace t.rearm_times id at) st.s_pending

let rearm t ~id action =
  match Hashtbl.find_opt t.rearm_times id with
  | None ->
      invalid_arg
        (Printf.sprintf "Scheduler.rearm: event %d is not awaiting restore" id)
  | Some at ->
      Hashtbl.remove t.rearm_times id;
      Heap.add_with_seq t.queue ~prio:at ~seq:id action;
      set_flag t id;
      t.pending_count <- t.pending_count + 1

let unrestored t =
  Hashtbl.fold (fun id _ acc -> id :: acc) t.rearm_times []
  |> List.sort Int.compare

module For_testing = struct
  let step = step
  let pending = pending
end
