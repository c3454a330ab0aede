type meta = { time : float; n_tcps : int }

let w_meta b m =
  Codec.w_f64 b m.time;
  Codec.w_int b m.n_tcps

let r_meta r =
  let time = Codec.r_f64 r in
  let n_tcps = Codec.r_int r in
  { time; n_tcps }

let w_journal_entry b (e : Journal.entry) =
  Codec.w_f64 b e.Journal.time;
  Codec.w_string b e.source;
  Codec.w_string b e.event;
  Codec.w_f64 b e.value

let r_journal_entry r =
  let time = Codec.r_f64 r in
  let source = Codec.r_string r in
  let event = Codec.r_string r in
  let value = Codec.r_f64 r in
  { Journal.time; source; event; value }

let payload_of f v =
  let b = Buffer.create 1024 in
  f b v;
  Buffer.contents b

let find_section sections name =
  List.find_opt (fun s -> String.equal s.Codec.name name) sections

let require_section sections name =
  match find_section sections name with
  | Some s -> Ok s
  | None -> Error (Codec.Malformed (Printf.sprintf "missing section %S" name))

let save ~path ~time ~config ~session ?registry ?journal () =
  let { Experiments.Sharing.net; rla; tcps; _ } = session in
  let sections =
    [
      {
        Codec.name = "meta";
        payload = payload_of w_meta { time; n_tcps = List.length tcps };
      };
      {
        Codec.name = "config";
        payload = payload_of State.w_sharing_config config;
      };
      {
        Codec.name = "scheduler";
        payload =
          payload_of State.w_scheduler
            (Sim.Scheduler.capture (Net.Network.scheduler net));
      };
      {
        Codec.name = "network";
        payload = payload_of State.w_network (Net.Network.capture net);
      };
      {
        Codec.name = "rla";
        payload = payload_of State.w_rla_sender (Rla.Sender.capture rla);
      };
      {
        Codec.name = "tcp";
        payload =
          payload_of
            (Codec.w_list State.w_tcp_sender)
            (List.map (fun (_, tcp) -> Tcp.Sender.capture tcp) tcps);
      };
    ]
  in
  let sections =
    match registry with
    | None -> sections
    | Some reg ->
        sections
        @ [
            {
              Codec.name = "registry";
              payload = payload_of State.w_registry (Obs.Registry.capture reg);
            };
          ]
  in
  let sections =
    match journal with
    | None -> sections
    | Some j ->
        sections
        @ [
            {
              Codec.name = "journal";
              payload =
                payload_of (Codec.w_list w_journal_entry) (Journal.entries j);
            };
          ]
  in
  Codec.save_file ~path sections

type error =
  | Codec_error of Codec.error
  | Unclaimed_events of Sim.Scheduler.event_id list

let error_to_string = function
  | Codec_error e -> Codec.error_to_string e
  | Unclaimed_events ids ->
      Printf.sprintf "checkpoint has %d pending event(s) no component claimed: %s"
        (List.length ids)
        (String.concat ", " (List.map string_of_int ids))

type loaded = {
  config : Experiments.Sharing.config;
  session : Experiments.Sharing.session;
  registry : Obs.Registry.t option;
  journal : Journal.t option;
  time : float;
}

let read_meta sections =
  let ( let* ) = Result.bind in
  let* meta_s = require_section sections "meta" in
  let* config_s = require_section sections "config" in
  let* meta = Codec.parse_payload meta_s r_meta in
  let* config = Codec.parse_payload config_s State.r_sharing_config in
  Ok (meta, config)

let load ~path =
  let ( let* ) = Result.bind in
  let as_codec r = Result.map_error (fun e -> Codec_error e) r in
  let* sections = as_codec (Codec.load_file ~path) in
  let* meta, config = as_codec (read_meta sections) in
  let* sched_st =
    as_codec
      (Result.bind (require_section sections "scheduler") (fun s ->
           Codec.parse_payload s State.r_scheduler))
  in
  let* net_st =
    as_codec
      (Result.bind (require_section sections "network") (fun s ->
           Codec.parse_payload s State.r_network))
  in
  let* rla_st =
    as_codec
      (Result.bind (require_section sections "rla") (fun s ->
           Codec.parse_payload s State.r_rla_sender))
  in
  let* tcp_sts =
    as_codec
      (Result.bind (require_section sections "tcp") (fun s ->
           Codec.parse_payload s (Codec.r_list State.r_tcp_sender)))
  in
  let* registry_st =
    match find_section sections "registry" with
    | None -> Ok None
    | Some s ->
        as_codec
          (Result.map
             (fun st -> Some st)
             (Codec.parse_payload s State.r_registry))
  in
  let* journal_entries =
    match find_section sections "journal" with
    | None -> Ok None
    | Some s ->
        as_codec
          (Result.map
             (fun es -> Some es)
             (Codec.parse_payload s (Codec.r_list r_journal_entry)))
  in
  (* Rebuild the identical session (same creation order, same event-id
     assignment), then overlay the captured state.  The scheduler goes
     first — component restores re-arm their events into it. *)
  match
    let registry =
      match registry_st with
      | None -> None
      | Some _ -> Some (Obs.Registry.create ())
    in
    let session = Experiments.Sharing.setup ?registry config in
    let net = session.Experiments.Sharing.net in
    let sched = Net.Network.scheduler net in
    Sim.Scheduler.restore sched sched_st;
    Net.Network.restore net net_st;
    Rla.Sender.restore session.Experiments.Sharing.rla rla_st;
    let tcps = session.Experiments.Sharing.tcps in
    if List.length tcp_sts <> List.length tcps then
      invalid_arg
        (Printf.sprintf "checkpoint has %d TCP flows, session has %d"
           (List.length tcp_sts) (List.length tcps));
    List.iter2 (fun (_, tcp) st -> Tcp.Sender.restore tcp st) tcps tcp_sts;
    (match (registry, registry_st) with
    | Some reg, Some st -> Obs.Registry.restore reg st
    | _ -> ());
    let journal =
      match journal_entries with
      | None -> None
      | Some entries ->
          let j = Journal.create () in
          List.iter (Journal.record j) entries;
          (match registry with Some reg -> Journal.attach j reg | None -> ());
          Some j
    in
    (session, registry, journal)
  with
  | exception Invalid_argument msg -> Error (Codec_error (Codec.Malformed msg))
  | session, registry, journal -> (
      match Sim.Scheduler.unrestored (Net.Network.scheduler session.Experiments.Sharing.net) with
      | [] ->
          Ok { config; session; registry; journal; time = meta.time }
      | ids -> Error (Unclaimed_events ids))

let checkpoint_file ~dir ~prefix ~time =
  Filename.concat dir (Printf.sprintf "%s_t%010.3f.ckpt" prefix time)

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    (try Sys.mkdir dir 0o755 with Sys_error _ -> ())
  end

(* The one run loop both entry points share: slice to [duration] with
   the warm-up reset at its usual place.  [now <= warmup] (not [<]) so
   a checkpoint taken exactly at the warm-up boundary — which captures
   pre-reset state, since the manager saves before the reset runs —
   replays the reset on resume, exactly like the uninterrupted run. *)
let drive ~config ~session ~registry ~journal ~ckpt =
  let net = session.Experiments.Sharing.net in
  let mgr =
    match ckpt with
    | None -> None
    | Some (every, dir, prefix) ->
        mkdir_p dir;
        let save_boundary ~time =
          save
            ~path:(checkpoint_file ~dir ~prefix ~time)
            ~time ~config ~session ?registry ?journal ()
        in
        let m = Manager.create ~every ~save:save_boundary in
        Manager.resume_from m (Net.Network.now net);
        Some m
  in
  let run_to until =
    match mgr with
    | Some m -> Manager.run m ~net ~until
    | None -> Net.Network.run_until net until
  in
  if Net.Network.now net <= config.Experiments.Sharing.warmup then begin
    run_to config.Experiments.Sharing.warmup;
    Experiments.Sharing.start_measurement session
  end;
  run_to config.Experiments.Sharing.duration;
  Experiments.Sharing.measure session config

let run_with_checkpoints ?registry ?journal ~every ~dir ~prefix config =
  let session = Experiments.Sharing.setup ?registry config in
  (match (journal, registry) with
  | Some j, Some reg -> Journal.attach j reg
  | _ -> ());
  drive ~config ~session ~registry ~journal ~ckpt:(Some (every, dir, prefix))

let resume_run ?every ?dir ?prefix loaded =
  let ckpt =
    match (every, dir) with
    | Some every, Some dir ->
        Some (every, dir, Option.value prefix ~default:"resume")
    | _ -> None
  in
  drive ~config:loaded.config ~session:loaded.session
    ~registry:loaded.registry ~journal:loaded.journal ~ckpt
