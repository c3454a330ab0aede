type link = Net.Packet.addr * Net.Packet.addr

type event =
  | Link_down of link
  | Link_up of link
  | Set_bandwidth of link * float
  | Set_delay of link * float
  | Receiver_leave of Net.Packet.addr
  | Receiver_join of Net.Packet.addr
  | Flow_start of { id : int; dst : Net.Packet.addr }
  | Flow_stop of { id : int }
  | Rst_inject of { flow : int; dst : Net.Packet.addr; seq : int }
  | Data_inject of { flow : int; dst : Net.Packet.addr; seq : int }

type entry = { time : float; event : event }

type t = entry list

let entries t = t

let is_empty t = t = []

let length = List.length

let pp_link ppf (a, b) = Fmt.pf ppf "%d-%d" a b

let pp_event ppf = function
  | Link_down l -> Fmt.pf ppf "down %a" pp_link l
  | Link_up l -> Fmt.pf ppf "up %a" pp_link l
  | Set_bandwidth (l, bps) -> Fmt.pf ppf "bw %a %g" pp_link l bps
  | Set_delay (l, d) -> Fmt.pf ppf "delay %a %g" pp_link l d
  | Receiver_leave a -> Fmt.pf ppf "leave %d" a
  | Receiver_join a -> Fmt.pf ppf "join %d" a
  | Flow_start { id; dst } -> Fmt.pf ppf "tcpstart %d->%d" id dst
  | Flow_stop { id } -> Fmt.pf ppf "tcpstop %d" id
  | Rst_inject { flow; dst; seq } ->
      Fmt.pf ppf "rst flow%d->%d seq %d" flow dst seq
  | Data_inject { flow; dst; seq } ->
      Fmt.pf ppf "inj flow%d->%d seq %d" flow dst seq

let event_to_string e = Fmt.str "%a" pp_event e

let validate_event = function
  | Set_bandwidth (_, bps) when bps <= 0.0 ->
      invalid_arg "Faults.Timeline: bandwidth must be positive"
  | Set_delay (_, d) when d < 0.0 ->
      invalid_arg "Faults.Timeline: delay must be nonnegative"
  | Rst_inject { seq; _ } | Data_inject { seq; _ } ->
      if seq < 0 then
        invalid_arg "Faults.Timeline: injected sequence must be nonnegative"
  | _ -> ()

let scripted events =
  List.iter
    (fun (time, event) ->
      if time < 0.0 || Float.is_nan time then
        invalid_arg "Faults.Timeline: event times must be nonnegative";
      validate_event event)
    events;
  (* Stable sort keeps the script order for simultaneous events, which
     in turn fixes the injector's scheduling (and hence firing) order. *)
  List.stable_sort
    (fun a b -> Float.compare a.time b.time)
    (List.map (fun (time, event) -> { time; event }) events)

(* {2 Generation} *)

type gen_params = {
  horizon : float;
  start : float;
  outage_links : link list;
  outage_rate : float;
  outage_min : float;
  outage_max : float;
  churn_receivers : Net.Packet.addr list;
  churn_rate : float;
  absence_min : float;
  absence_max : float;
  flow_dsts : Net.Packet.addr list;
  flow_rate : float;
  flow_lifetime_min : float;
  flow_lifetime_max : float;
}

let default_gen ~start ~horizon =
  {
    horizon;
    start;
    outage_links = [];
    outage_rate = 0.01;
    outage_min = 0.5;
    outage_max = 5.0;
    churn_receivers = [];
    churn_rate = 0.02;
    absence_min = 5.0;
    absence_max = 30.0;
    flow_dsts = [];
    flow_rate = 0.01;
    flow_lifetime_min = 10.0;
    flow_lifetime_max = 60.0;
  }

(* Each category is a Poisson process drawn to completion before the
   next one starts, so the generated schedule depends only on the RNG
   state handed in — never on interleaving. *)
let poisson_times ~rng ~rate ~start ~horizon =
  if rate <= 0.0 then []
  else begin
    let times = ref [] in
    let t = ref (start +. Sim.Rng.exponential rng (1.0 /. rate)) in
    while !t < horizon do
      times := !t :: !times;
      t := !t +. Sim.Rng.exponential rng (1.0 /. rate)
    done;
    List.rev !times
  end

let pick rng = function
  | [] -> None
  | l -> Some (List.nth l (Sim.Rng.int rng (List.length l)))

let generate ~rng p =
  if p.horizon <= p.start then
    invalid_arg "Faults.Timeline.generate: horizon must exceed start";
  if p.outage_min > p.outage_max || p.outage_min < 0.0 then
    invalid_arg "Faults.Timeline.generate: bad outage bounds";
  let events = ref [] in
  let add time event = events := (time, event) :: !events in
  (* Link outages: down at a Poisson arrival, up after a bounded
     uniform duration (possibly past the horizon — the link heals even
     if the run ends first). *)
  List.iter
    (fun t ->
      match pick rng p.outage_links with
      | None -> ()
      | Some l ->
          let d = Sim.Rng.range rng p.outage_min p.outage_max in
          add t (Link_down l);
          add (t +. d) (Link_up l))
    (poisson_times ~rng ~rate:p.outage_rate ~start:p.start ~horizon:p.horizon);
  (* Membership churn: a receiver leaves, then rejoins after a bounded
     absence. *)
  List.iter
    (fun t ->
      match pick rng p.churn_receivers with
      | None -> ()
      | Some a ->
          let d = Sim.Rng.range rng p.absence_min p.absence_max in
          add t (Receiver_leave a);
          add (t +. d) (Receiver_join a))
    (poisson_times ~rng ~rate:p.churn_rate ~start:p.start ~horizon:p.horizon);
  (* Flow churn: short-lived competing TCP connections.  Ids count down
     from a high base so they cannot collide with script-chosen ids. *)
  let next_id = ref 1_000_000 in
  List.iter
    (fun t ->
      match pick rng p.flow_dsts with
      | None -> ()
      | Some dst ->
          let id = !next_id in
          incr next_id;
          let d = Sim.Rng.range rng p.flow_lifetime_min p.flow_lifetime_max in
          add t (Flow_start { id; dst });
          add (t +. d) (Flow_stop { id }))
    (poisson_times ~rng ~rate:p.flow_rate ~start:p.start ~horizon:p.horizon);
  scripted (List.rev !events)

(* {2 Spec strings} *)

let spec_grammar =
  "TIME:down:A-B | TIME:up:A-B | TIME:bw:A-B:BPS | TIME:delay:A-B:SECS \
   | TIME:leave:ADDR | TIME:join:ADDR | TIME:tcpstart:ID:DST \
   | TIME:tcpstop:ID | TIME:rst:FLOW:DST:SEQ | TIME:inj:FLOW:DST:SEQ, \
   ';'-separated"

let parse_link s =
  match String.split_on_char '-' s with
  | [ a; b ] -> (
      match (int_of_string_opt a, int_of_string_opt b) with
      | Some a, Some b -> Ok (a, b)
      | _ -> Error (Printf.sprintf "bad link %S (want A-B)" s))
  | _ -> Error (Printf.sprintf "bad link %S (want A-B)" s)

let parse_entry s =
  let ( let* ) = Result.bind in
  let int name v =
    match int_of_string_opt v with
    | Some i -> Ok i
    | None -> Error (Printf.sprintf "bad %s %S" name v)
  in
  let num name v =
    match float_of_string_opt v with
    | Some f -> Ok f
    | None -> Error (Printf.sprintf "bad %s %S" name v)
  in
  match String.split_on_char ':' s with
  | time :: kind :: rest -> (
      let* time = num "time" time in
      if time < 0.0 then Error (Printf.sprintf "negative time in %S" s)
      else
        let* event =
          match (String.lowercase_ascii kind, rest) with
          | "down", [ l ] ->
              let* l = parse_link l in
              Ok (Link_down l)
          | "up", [ l ] ->
              let* l = parse_link l in
              Ok (Link_up l)
          | "bw", [ l; bps ] ->
              let* l = parse_link l in
              let* bps = num "bandwidth" bps in
              if bps <= 0.0 then Error "bandwidth must be positive"
              else Ok (Set_bandwidth (l, bps))
          | "delay", [ l; d ] ->
              let* l = parse_link l in
              let* d = num "delay" d in
              if d < 0.0 then Error "delay must be nonnegative"
              else Ok (Set_delay (l, d))
          | "leave", [ a ] ->
              let* a = int "address" a in
              Ok (Receiver_leave a)
          | "join", [ a ] ->
              let* a = int "address" a in
              Ok (Receiver_join a)
          | "tcpstart", [ id; dst ] ->
              let* id = int "flow id" id in
              let* dst = int "destination" dst in
              Ok (Flow_start { id; dst })
          | "tcpstop", [ id ] ->
              let* id = int "flow id" id in
              Ok (Flow_stop { id })
          | "rst", [ flow; dst; seq ] ->
              let* flow = int "flow id" flow in
              let* dst = int "destination" dst in
              let* seq = int "sequence" seq in
              if seq < 0 then Error "injected sequence must be nonnegative"
              else Ok (Rst_inject { flow; dst; seq })
          | "inj", [ flow; dst; seq ] ->
              let* flow = int "flow id" flow in
              let* dst = int "destination" dst in
              let* seq = int "sequence" seq in
              if seq < 0 then Error "injected sequence must be nonnegative"
              else Ok (Data_inject { flow; dst; seq })
          | k, _ -> Error (Printf.sprintf "unknown fault event %S in %S" k s)
        in
        Ok (time, event))
  | _ -> Error (Printf.sprintf "bad fault entry %S (want TIME:EVENT:...)" s)

type parse_error = {
  pe_index : int;
  pe_offset : int;
  pe_entry : string;
  pe_reason : string;
}

let parse_error_to_string e =
  if e.pe_entry = "" then Fmt.str "fault spec: %s" e.pe_reason
  else
    Fmt.str "fault spec entry %d (offset %d, %S): %s" (e.pe_index + 1)
      e.pe_offset e.pe_entry e.pe_reason

(* Split on ';' keeping each entry's byte offset in the original spec
   (after leading whitespace), so parse errors can point at the exact
   position of the offending entry. *)
let split_with_offsets spec =
  let n = String.length spec in
  let pieces = ref [] in
  let start = ref 0 in
  for i = 0 to n do
    if i = n || spec.[i] = ';' then begin
      pieces := (!start, String.sub spec !start (i - !start)) :: !pieces;
      start := i + 1
    end
  done;
  List.rev !pieces
  |> List.filter_map (fun (off, raw) ->
         let trimmed = String.trim raw in
         if trimmed = "" then None
         else begin
           let lead = ref 0 in
           while
             match raw.[!lead] with
             | ' ' | '\t' | '\n' | '\r' -> true
             | _ -> false
           do
             incr lead
           done;
           Some (off + !lead, trimmed)
         end)

let of_spec spec =
  match split_with_offsets spec with
  | [] ->
      Error
        { pe_index = 0; pe_offset = 0; pe_entry = ""; pe_reason = "empty fault spec" }
  | pieces ->
      let rec build i acc = function
        | [] -> Ok (scripted (List.rev acc))
        | (off, s) :: rest -> (
            match parse_entry s with
            | Ok e -> build (i + 1) (e :: acc) rest
            | Error reason ->
                Error
                  { pe_index = i; pe_offset = off; pe_entry = s; pe_reason = reason })
      in
      build 0 [] pieces

let to_spec t =
  String.concat ";"
    (List.map
       (fun { time; event } ->
         match event with
         | Link_down l -> Fmt.str "%g:down:%a" time pp_link l
         | Link_up l -> Fmt.str "%g:up:%a" time pp_link l
         | Set_bandwidth (l, bps) -> Fmt.str "%g:bw:%a:%g" time pp_link l bps
         | Set_delay (l, d) -> Fmt.str "%g:delay:%a:%g" time pp_link l d
         | Receiver_leave a -> Fmt.str "%g:leave:%d" time a
         | Receiver_join a -> Fmt.str "%g:join:%d" time a
         | Flow_start { id; dst } -> Fmt.str "%g:tcpstart:%d:%d" time id dst
         | Flow_stop { id } -> Fmt.str "%g:tcpstop:%d" time id
         | Rst_inject { flow; dst; seq } ->
             Fmt.str "%g:rst:%d:%d:%d" time flow dst seq
         | Data_inject { flow; dst; seq } ->
             Fmt.str "%g:inj:%d:%d:%d" time flow dst seq)
       t)
