type handlers = {
  on_receiver_leave : Net.Packet.addr -> bool;
  on_receiver_join : Net.Packet.addr -> bool;
  on_flow_start : id:int -> dst:Net.Packet.addr -> bool;
  on_flow_stop : id:int -> bool;
  on_rst_inject : flow:int -> dst:Net.Packet.addr -> seq:int -> bool;
  on_data_inject : flow:int -> dst:Net.Packet.addr -> seq:int -> bool;
  membership : unit -> int;
}

let null_handlers =
  {
    on_receiver_leave = (fun _ -> false);
    on_receiver_join = (fun _ -> false);
    on_flow_start = (fun ~id:_ ~dst:_ -> false);
    on_flow_stop = (fun ~id:_ -> false);
    on_rst_inject = (fun ~flow:_ ~dst:_ ~seq:_ -> false);
    on_data_inject = (fun ~flow:_ ~dst:_ ~seq:_ -> false);
    membership = (fun () -> 0);
  }

type applied = { time : float; event : Timeline.event; ok : bool }

type probe = {
  injected : Obs.Registry.counter;
  skipped_c : Obs.Registry.counter;
  outages_c : Obs.Registry.counter;
  membership_g : Obs.Registry.gauge;
  downtime_g : Obs.Registry.gauge;
  registry : Obs.Registry.t;
}

type t = {
  net : Net.Network.t;
  handlers : handlers;
  timeline : Timeline.t;
  mutable log : applied list;  (** Reverse application order. *)
  mutable outages : int;
  mutable skipped : int;
  mutable touched : Timeline.link list;  (** Links ever taken down. *)
  (* Timeline entries scheduled but not yet fired, keyed by event id;
     the payload is the entry's index in [Timeline.entries], which is
     all a restore needs to re-arm the same firing. *)
  pending : (Sim.Scheduler.event_id, int) Hashtbl.t;
  probe : probe option;
}

let applied t = List.rev t.log

let outages t = t.outages

let skipped t = t.skipped

let injected t = List.length t.log

(* Both directions of the duplex pair, in (a->b, b->a) order. *)
let directions t (a, b) =
  match
    (Net.Network.link_between t.net a b, Net.Network.link_between t.net b a)
  with
  | Some ab, Some ba -> [ ab; ba ]
  | Some ab, None -> [ ab ]
  | None, Some ba -> [ ba ]
  | None, None -> []

let downtime t =
  (* Directed halves of a duplex pair go down and up together, so
     either one measures the pair's outage time. *)
  List.fold_left
    (fun acc pair ->
      match directions t pair with
      | l :: _ -> acc +. Net.Link.downtime l
      | [] -> acc)
    0.0 t.touched

let event_value = function
  | Timeline.Link_down _ | Timeline.Link_up _ -> 0.0
  | Timeline.Set_bandwidth (_, bps) -> bps
  | Timeline.Set_delay (_, d) -> d
  | Timeline.Receiver_leave a | Timeline.Receiver_join a -> float_of_int a
  | Timeline.Flow_start { id; _ } | Timeline.Flow_stop { id } -> float_of_int id
  | Timeline.Rst_inject { seq; _ } | Timeline.Data_inject { seq; _ } ->
      float_of_int seq

let event_kind = function
  | Timeline.Link_down _ -> "link_down"
  | Timeline.Link_up _ -> "link_up"
  | Timeline.Set_bandwidth _ -> "set_bandwidth"
  | Timeline.Set_delay _ -> "set_delay"
  | Timeline.Receiver_leave _ -> "receiver_leave"
  | Timeline.Receiver_join _ -> "receiver_join"
  | Timeline.Flow_start _ -> "flow_start"
  | Timeline.Flow_stop _ -> "flow_stop"
  | Timeline.Rst_inject _ -> "rst_inject"
  | Timeline.Data_inject _ -> "data_inject"

let apply t event =
  match event with
  | Timeline.Link_down pair -> (
      match directions t pair with
      | [] -> false
      | links ->
          let was_up = List.exists Net.Link.is_up links in
          List.iter Net.Link.set_down links;
          if was_up then begin
            t.outages <- t.outages + 1;
            if not (List.mem pair t.touched) then
              t.touched <- t.touched @ [ pair ]
          end;
          was_up)
  | Timeline.Link_up pair -> (
      match directions t pair with
      | [] -> false
      | links ->
          let was_down = List.exists (fun l -> not (Net.Link.is_up l)) links in
          List.iter Net.Link.set_up links;
          was_down)
  | Timeline.Set_bandwidth (pair, bps) -> (
      match directions t pair with
      | [] -> false
      | links ->
          List.iter (fun l -> Net.Link.set_bandwidth l bps) links;
          true)
  | Timeline.Set_delay (pair, d) -> (
      match directions t pair with
      | [] -> false
      | links ->
          List.iter (fun l -> Net.Link.set_delay l d) links;
          true)
  | Timeline.Receiver_leave a ->
      (* Refuse to empty the session: the sender cannot run with zero
         receivers (and [drop_receiver] would raise). *)
      if t.handlers.membership () <= 1 then false
      else t.handlers.on_receiver_leave a
  | Timeline.Receiver_join a -> t.handlers.on_receiver_join a
  | Timeline.Flow_start { id; dst } -> t.handlers.on_flow_start ~id ~dst
  | Timeline.Flow_stop { id } -> t.handlers.on_flow_stop ~id
  | Timeline.Rst_inject { flow; dst; seq } ->
      t.handlers.on_rst_inject ~flow ~dst ~seq
  | Timeline.Data_inject { flow; dst; seq } ->
      t.handlers.on_data_inject ~flow ~dst ~seq

let fire t ({ Timeline.time; event } as entry) =
  ignore (entry : Timeline.entry);
  let ok = apply t event in
  t.log <- { time; event; ok } :: t.log;
  if not ok then t.skipped <- t.skipped + 1;
  match t.probe with
  | None -> ()
  | Some p ->
      Obs.Registry.incr p.injected;
      if not ok then Obs.Registry.incr p.skipped_c;
      (match event with
      | Timeline.Link_down _ when ok -> Obs.Registry.incr p.outages_c
      | _ -> ());
      Obs.Registry.set p.membership_g (float_of_int (t.handlers.membership ()));
      Obs.Registry.set p.downtime_g (downtime t);
      Obs.Registry.emit p.registry ~time ~source:"faults"
        ~event:(event_kind event) ~value:(event_value event)

let install ~net ?(handlers = null_handlers) timeline =
  let probe =
    match Net.Network.observer net with
    | None -> None
    | Some registry ->
        Some
          {
            injected = Obs.Registry.counter registry "faults.injected";
            skipped_c = Obs.Registry.counter registry "faults.skipped";
            outages_c = Obs.Registry.counter registry "faults.outages";
            membership_g = Obs.Registry.gauge registry "faults.membership";
            downtime_g = Obs.Registry.gauge registry "faults.downtime_s";
            registry;
          }
  in
  let t =
    {
      net;
      handlers;
      timeline;
      log = [];
      outages = 0;
      skipped = 0;
      touched = [];
      pending = Hashtbl.create 16;
      probe;
    }
  in
  let sched = Net.Network.scheduler net in
  List.iteri
    (fun idx ({ Timeline.time; _ } as entry) ->
      let at = Float.max time (Sim.Scheduler.now sched) in
      let rid = ref (-1) in
      let id =
        Sim.Scheduler.schedule_at sched at (fun () ->
            Hashtbl.remove t.pending !rid;
            fire t entry)
      in
      rid := id;
      Hashtbl.replace t.pending id idx)
    (Timeline.entries timeline);
  t

(* --- checkpoint/restore -------------------------------------------- *)

type state = {
  s_log : applied list;  (* reverse application order, as stored *)
  s_outages : int;
  s_skipped : int;
  s_touched : Timeline.link list;
  s_pending : (Sim.Scheduler.event_id * int) list;
      (* (event id, timeline-entry index), ascending id *)
}

let capture t =
  {
    s_log = t.log;
    s_outages = t.outages;
    s_skipped = t.skipped;
    s_touched = t.touched;
    s_pending =
      Hashtbl.fold (fun id idx acc -> (id, idx) :: acc) t.pending []
      |> List.sort (fun (a, _) (b, _) -> Int.compare a b);
  }

let restore t st =
  t.log <- st.s_log;
  t.outages <- st.s_outages;
  t.skipped <- st.s_skipped;
  t.touched <- st.s_touched;
  Hashtbl.reset t.pending;
  let entries = Array.of_list (Timeline.entries t.timeline) in
  let sched = Net.Network.scheduler t.net in
  List.iter
    (fun (id, idx) ->
      if idx < 0 || idx >= Array.length entries then
        invalid_arg "Injector.restore: timeline entry index out of range";
      let entry = entries.(idx) in
      Hashtbl.replace t.pending id idx;
      Sim.Scheduler.rearm sched ~id (fun () ->
          Hashtbl.remove t.pending id;
          fire t entry))
    st.s_pending
