type config = {
  bandwidth_bps : float;
  prop_delay : float;
  queue : Queue_disc.kind;
  capacity : int;
  phase_jitter : bool;
}

type stats = {
  offered : int;
  dropped : int;
  delivered : int;
  bytes_delivered : int;
  marked : int;
}

(* The link owns one packet reference for everything it holds (buffer,
   in service, on the wire) and settles it on every exit path: drops
   release back to the pool, deliveries transfer the reference to the
   [deliver] callback.

   Event closures are shared, not per-packet: the link is strictly FIFO
   (the delivery clamp in [propagate] plus in-order event ids), so the
   next tx completion always concerns [in_service] and the next
   delivery always concerns the front of the [wire] ring.  One
   [tx_thunk] and one [deliver_thunk] per link replace a closure (and a
   ref cell) per packet.

   Nothing on the per-packet path allocates except the boxed fire time
   handed to the scheduler (one 2-word box per scheduled event) and,
   under phase jitter, the boxed draw [Sim.Rng.uniform] returns: the
   packet in service and its completion event are sentinels
   ([Packet.Pool.dummy_pkt], [-1]) rather than options, and the float
   state lives in the all-float [clock] record, whose fields are stored
   unboxed — a float field of the mixed record [t] would box on every
   write. *)
type clock = {
  mutable down_since : float;
  mutable downtime_acc : float;
  mutable last_delivery : float;
}

type t = {
  id : string;
  sched : Sim.Scheduler.t;
  rng : Sim.Rng.t;
  pool : Packet.Pool.t;
  mutable config : config;
  disc : Queue_disc.t;
  buffer : Packet.t Ring.t;
  deliver : Packet.t -> unit;
  (* Packets past serialization in delivery order, with their delivery
     event ids (ascending), so a checkpoint can re-arm every delivery
     still on the wire. *)
  wire_ids : int Ring.t;
  wire_pkts : Packet.t Ring.t;
  mutable tx_thunk : unit -> unit;
  mutable deliver_thunk : unit -> unit;
  mutable busy : bool;
  mutable in_service : Packet.t;  (* [Packet.Pool.dummy_pkt] = none *)
  mutable tx_event : Sim.Scheduler.event_id;  (* -1 = none *)
  mutable up : bool;
  clock : clock;
  mutable offered : int;
  mutable dropped : int;
  mutable delivered : int;
  mutable bytes_delivered : int;
  mutable marked : int;
  mutable drop_hook : (Packet.t -> unit) option;
  mutable taps : taps option;
}

and taps = {
  reg : Obs.Registry.t;
  src : string;  (* cached "link.<id>" so emits never build strings *)
  qlen_s : Obs.Series.t;  (* occupancy sampled on every arrival *)
  drops_c : Obs.Registry.counter;
  marks_c : Obs.Registry.counter;
  delivered_c : Obs.Registry.counter;
}

let id t = t.id

let config t = t.config

let qlen t = Ring.length t.buffer

let busy t = t.busy

let is_up t = t.up

let service_time t size = float_of_int (size * 8) /. t.config.bandwidth_bps

let stats t =
  {
    offered = t.offered;
    dropped = t.dropped;
    delivered = t.delivered;
    bytes_delivered = t.bytes_delivered;
    marked = t.marked;
  }

let reset_stats t =
  t.offered <- 0;
  t.dropped <- 0;
  t.delivered <- 0;
  t.bytes_delivered <- 0;
  t.marked <- 0

let set_drop_hook t hook = t.drop_hook <- Some hook

let downtime t =
  t.clock.downtime_acc
  +. if t.up then 0.0 else Sim.Scheduler.now t.sched -. t.clock.down_since

let count_drop t pkt =
  t.dropped <- t.dropped + 1;
  (match t.taps with
  | None -> ()
  | Some taps ->
      Obs.Registry.incr taps.drops_c;
      Obs.Registry.emit taps.reg
        ~time:(Sim.Scheduler.now t.sched)
        ~source:taps.src
        ~event:"drop"
        ~value:(float_of_int (Ring.length t.buffer)));
  (match t.drop_hook with None -> () | Some hook -> hook pkt);
  Packet.Pool.release t.pool pkt

(* Deliver after propagation (+ optional phase jitter of up to one
   service time, section 3.1 of the paper).  The jitter is drawn
   independently per packet, so a small packet chasing a large one
   could otherwise overtake it; clamping each delivery to the link's
   last scheduled delivery keeps the link FIFO (ties fire in
   scheduling order, preserving arrival order).  The clamp also covers
   runtime reconfiguration: shrinking [prop_delay] or growing
   [bandwidth_bps] mid-run cannot schedule a delivery before one
   already on the wire. *)
let deliver_front t =
  if Ring.is_empty t.wire_pkts then
    invalid_arg
      (Printf.sprintf "Link %s: delivery fired with an empty wire" t.id);
  ignore (Ring.take t.wire_ids : Sim.Scheduler.event_id);
  t.deliver (Ring.take t.wire_pkts)

(* The jitter is [Rng.float rng bound] spelled as [uniform *. bound]
   (the same product), so the bound is not boxed for the call. *)
let propagate t pkt =
  let jitter =
    if t.config.phase_jitter then
      Sim.Rng.uniform t.rng *. service_time t pkt.Packet.size
    else 0.0
  in
  let at = Sim.Scheduler.now t.sched +. t.config.prop_delay +. jitter in
  let last = t.clock.last_delivery in
  let at = if at >= last then at else last in
  if !Sim.Invariant.enabled then
    Sim.Invariant.require
      (at >= last && at >= Sim.Scheduler.now t.sched)
      (fun () ->
        Printf.sprintf
          "Link %s: delivery at %g would overtake last delivery %g (now %g)"
          t.id at last
          (Sim.Scheduler.now t.sched));
  t.clock.last_delivery <- at;
  let eid = Sim.Scheduler.schedule_at t.sched at t.deliver_thunk in
  Ring.push t.wire_ids eid;
  Ring.push t.wire_pkts pkt

let rec complete_tx t =
  let pkt = t.in_service in
  if pkt == Packet.Pool.dummy_pkt then
    invalid_arg
      (Printf.sprintf "Link %s: tx completion with nothing in service" t.id);
  t.tx_event <- -1;
  t.in_service <- Packet.Pool.dummy_pkt;
  t.delivered <- t.delivered + 1;
  t.bytes_delivered <- t.bytes_delivered + pkt.Packet.size;
  (match t.taps with
  | None -> ()
  | Some taps -> Obs.Registry.incr taps.delivered_c);
  propagate t pkt;
  start_transmission t

(* The completion time is [now + tx] computed here, the same sum
   [schedule_after] would form, so only one float is boxed for the
   scheduler. *)
and start_transmission t =
  if Ring.is_empty t.buffer then begin
    t.busy <- false;
    Queue_disc.on_empty t.disc ~now:(Sim.Scheduler.now t.sched)
  end
  else begin
    let pkt = Ring.take t.buffer in
    t.busy <- true;
    t.in_service <- pkt;
    t.tx_event <-
      Sim.Scheduler.schedule_at t.sched
        (Sim.Scheduler.now t.sched +. service_time t pkt.Packet.size)
        t.tx_thunk
  end

let create ~sched ~rng ~pool ~id config ~deliver =
  if config.bandwidth_bps <= 0.0 then
    invalid_arg "Link.create: bandwidth must be positive";
  if config.prop_delay < 0.0 then
    invalid_arg "Link.create: negative propagation delay";
  let t =
    {
      id;
      sched;
      rng;
      pool;
      config;
      disc = Queue_disc.create config.queue ~capacity:config.capacity ~rng;
      buffer = Ring.create ~dummy:Packet.Pool.dummy_pkt;
      deliver;
      wire_ids = Ring.create ~dummy:(-1);
      wire_pkts = Ring.create ~dummy:Packet.Pool.dummy_pkt;
      tx_thunk = ignore;
      deliver_thunk = ignore;
      busy = false;
      in_service = Packet.Pool.dummy_pkt;
      tx_event = -1;
      up = true;
      clock = { down_since = 0.0; downtime_acc = 0.0; last_delivery = 0.0 };
      offered = 0;
      dropped = 0;
      delivered = 0;
      bytes_delivered = 0;
      marked = 0;
      drop_hook = None;
      taps = None;
    }
  in
  t.tx_thunk <- (fun () -> complete_tx t);
  t.deliver_thunk <- (fun () -> deliver_front t);
  t

let set_registry t reg =
  t.taps <-
    Option.map
      (fun r ->
        {
          reg = r;
          src = Printf.sprintf "link.%s" t.id;
          qlen_s = Obs.Registry.series r (Printf.sprintf "link.%s.qlen" t.id);
          drops_c = Obs.Registry.counter r (Printf.sprintf "link.%s.drops" t.id);
          marks_c = Obs.Registry.counter r (Printf.sprintf "link.%s.marks" t.id);
          delivered_c =
            Obs.Registry.counter r (Printf.sprintf "link.%s.delivered" t.id);
        })
      reg;
  Queue_disc.set_registry t.disc reg ~id:t.id

let check_occupancy t =
  if !Sim.Invariant.enabled then
    Sim.Invariant.require
      (Ring.length t.buffer <= Queue_disc.capacity t.disc)
      (fun () ->
        Printf.sprintf "Link %s: occupancy %d exceeds capacity %d" t.id
          (Ring.length t.buffer)
          (Queue_disc.capacity t.disc))

(* lint: hot send -- per-packet enqueue on every hop; event closures
   are shared per link and the in-service packet is a sentinel (see the
   type comment), so the admit path allocates only the scheduler's
   boxed completion time when the link was idle *)
let send t pkt =
  t.offered <- t.offered + 1;
  if not t.up then
    (* A down link rejects every offer outright: the packet is counted
       as dropped (never silently lost) and the queue discipline is
       bypassed — no RED state update, no RNG draw. *)
    count_drop t pkt
  else begin
    let now = Sim.Scheduler.now t.sched in
    let decision =
      Queue_disc.on_arrival t.disc ~now ~qlen:(Ring.length t.buffer)
    in
    (match t.taps with
    | None -> ()
    | Some taps -> (
        Obs.Series.add taps.qlen_s ~time:now
          (float_of_int (Ring.length t.buffer));
        match decision with
        | `Drop ->
            Obs.Registry.incr taps.drops_c;
            Obs.Registry.emit taps.reg ~time:now ~source:taps.src
              ~event:"drop"
              ~value:(float_of_int (Ring.length t.buffer))
        | `Mark ->
            Obs.Registry.incr taps.marks_c;
            Obs.Registry.emit taps.reg ~time:now ~source:taps.src
              ~event:"mark"
              ~value:(float_of_int (Ring.length t.buffer))
        | `Admit -> ()));
    match decision with
    | `Drop -> begin
        t.dropped <- t.dropped + 1;
        (match t.drop_hook with None -> () | Some hook -> hook pkt);
        Packet.Pool.release t.pool pkt
      end
    | `Admit ->
        Ring.push t.buffer pkt;
        check_occupancy t;
        if not t.busy then start_transmission t
    | `Mark ->
        t.marked <- t.marked + 1;
        (* Mark in place when this link is the sole owner; a packet
           shared by a multicast fan-out gets a private marked copy
           (same uid) so sibling branches keep the unmarked original. *)
        let marked_pkt =
          if pkt.Packet.refs = 1 then begin
            pkt.Packet.ecn <- true;
            pkt
          end
          else begin
            let c = Packet.Pool.acquire_copy t.pool pkt in
            c.Packet.ecn <- true;
            Packet.Pool.release t.pool pkt;
            c
          end
        in
        Ring.push t.buffer marked_pkt;
        check_occupancy t;
        if not t.busy then start_transmission t
  end

(* --- runtime reconfiguration (fault injection) --------------------- *)

let set_bandwidth t bps =
  if bps <= 0.0 then invalid_arg "Link.set_bandwidth: must be positive";
  (* The packet in service keeps its already-scheduled completion (it
     started serializing at the old rate); later packets use the new
     one.  FIFO holds: completions are strictly sequential and
     deliveries are clamped in [propagate]. *)
  t.config <- { t.config with bandwidth_bps = bps }

let set_delay t delay =
  if delay < 0.0 then invalid_arg "Link.set_delay: negative delay";
  t.config <- { t.config with prop_delay = delay }

let set_down t =
  if t.up then begin
    t.up <- false;
    t.clock.down_since <- Sim.Scheduler.now t.sched;
    (* The packet being serialized is aborted and lost; packets already
       past serialization (propagating) are on the wire and still
       arrive. *)
    if t.tx_event >= 0 then begin
      Sim.Scheduler.cancel t.sched t.tx_event;
      t.tx_event <- -1
    end;
    let was_busy = t.busy in
    let pkt = t.in_service in
    if pkt != Packet.Pool.dummy_pkt then begin
      t.in_service <- Packet.Pool.dummy_pkt;
      count_drop t pkt
    end;
    t.busy <- false;
    (* Everything queued behind it is flushed into the drop count. *)
    while not (Ring.is_empty t.buffer) do
      count_drop t (Ring.take t.buffer)
    done;
    if was_busy then Queue_disc.on_empty t.disc ~now:(Sim.Scheduler.now t.sched)
  end

let set_up t =
  if not t.up then begin
    t.up <- true;
    t.clock.downtime_acc <-
      t.clock.downtime_acc +. (Sim.Scheduler.now t.sched -. t.clock.down_since)
  end

(* --- checkpoint/restore -------------------------------------------- *)

type state = {
  s_bandwidth_bps : float;
  s_prop_delay : float;
  s_buffer : Packet.t list;  (* FIFO order, head of line first *)
  s_busy : bool;
  s_in_service : Packet.t option;
  s_tx_event : Sim.Scheduler.event_id option;
  s_inflight : (Sim.Scheduler.event_id * Packet.t) list;  (* ascending id *)
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

(* Captured packets are private copies: live packets are recycled
   through the pool as the simulation advances, so a state that shared
   records with the running link would be silently rewritten.  The
   copies are plain records with one reference, valid whether the state
   is serialized or restored in-memory later.  The state keeps options
   for the in-service packet and its event, so the sentinels are
   converted here and the checkpoint format is unchanged. *)
let snapshot_pkt (p : Packet.t) = { p with Packet.refs = 1 }

let capture t =
  let wire =
    List.map2
      (fun id pkt -> (id, snapshot_pkt pkt))
      (Ring.capture t.wire_ids)
      (Ring.capture t.wire_pkts)
  in
  {
    s_bandwidth_bps = t.config.bandwidth_bps;
    s_prop_delay = t.config.prop_delay;
    s_buffer = List.map snapshot_pkt (Ring.capture t.buffer);
    s_busy = t.busy;
    s_in_service =
      (if t.in_service == Packet.Pool.dummy_pkt then None
       else Some (snapshot_pkt t.in_service));
    s_tx_event = (if t.tx_event < 0 then None else Some t.tx_event);
    s_inflight = wire;
    s_up = t.up;
    s_down_since = t.clock.down_since;
    s_downtime_acc = t.clock.downtime_acc;
    s_last_delivery = t.clock.last_delivery;
    s_offered = t.offered;
    s_dropped = t.dropped;
    s_delivered = t.delivered;
    s_bytes_delivered = t.bytes_delivered;
    s_marked = t.marked;
    s_rng = Sim.Rng.state t.rng;
    s_disc = Queue_disc.capture t.disc;
  }

(* Must run after [Sim.Scheduler.restore]: the tx-completion and every
   in-flight delivery re-arm under their original event ids.  The RNG
   is set once here — the queue discipline shares the same generator.
   Installed packets are copies of the state's (the state stays
   pristine if restored again). *)
let restore t st =
  t.config <-
    {
      t.config with
      bandwidth_bps = st.s_bandwidth_bps;
      prop_delay = st.s_prop_delay;
    };
  Ring.restore t.buffer (List.map snapshot_pkt st.s_buffer);
  t.busy <- st.s_busy;
  t.in_service <-
    (match st.s_in_service with
    | None -> Packet.Pool.dummy_pkt
    | Some p -> snapshot_pkt p);
  t.tx_event <- Option.value st.s_tx_event ~default:(-1);
  (match (st.s_tx_event, st.s_in_service) with
  | Some id, Some _ -> Sim.Scheduler.rearm t.sched ~id t.tx_thunk
  | Some id, None ->
      invalid_arg
        (Printf.sprintf "Link.restore: %s: tx event %d with nothing in service"
           t.id id)
  | None, _ -> ());
  Ring.restore t.wire_ids (List.map fst st.s_inflight);
  Ring.restore t.wire_pkts (List.map (fun (_, p) -> snapshot_pkt p) st.s_inflight);
  List.iter
    (fun (id, _) -> Sim.Scheduler.rearm t.sched ~id t.deliver_thunk)
    st.s_inflight;
  t.up <- st.s_up;
  t.clock.down_since <- st.s_down_since;
  t.clock.downtime_acc <- st.s_downtime_acc;
  t.clock.last_delivery <- st.s_last_delivery;
  t.offered <- st.s_offered;
  t.dropped <- st.s_dropped;
  t.delivered <- st.s_delivered;
  t.bytes_delivered <- st.s_bytes_delivered;
  t.marked <- st.s_marked;
  Sim.Rng.set_state t.rng st.s_rng;
  Queue_disc.restore t.disc st.s_disc
