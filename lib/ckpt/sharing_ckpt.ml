open Codec.Syntax

type meta = { time : float; n_tcps : int }

let meta =
  Codec.record
    (let+ time = Codec.field Codec.f64 (fun m -> m.time)
     and+ n_tcps = Codec.field Codec.int (fun m -> m.n_tcps) in
     { time; n_tcps })

let journal_entry =
  let module J = Journal in
  Codec.record
    (let+ time = Codec.field Codec.f64 (fun e -> e.J.time)
     and+ source = Codec.field Codec.string (fun e -> e.J.source)
     and+ event = Codec.field Codec.string (fun e -> e.J.event)
     and+ value = Codec.field Codec.f64 (fun e -> e.J.value) in
     { J.time; source; event; value })

let journal_codec = Codec.list journal_entry

let save ~path ~time ~config ~session ?registry ?journal () =
  let { Experiments.Sharing.net; rla; tcps; _ } = session in
  let optional name codec = function
    | None -> []
    | Some v -> [ Codec.section name codec v ]
  in
  Codec.save_file ~path
    ([
       Codec.section "meta" meta { time; n_tcps = List.length tcps };
       Codec.section "config" State.sharing_config config;
       Codec.section "scheduler" State.scheduler
         (Sim.Scheduler.capture (Net.Network.scheduler net));
       Codec.section "network" State.network (Net.Network.capture net);
       Codec.section "rla" State.rla_sender (Rla.Sender.capture rla);
       Codec.section "tcp" (Codec.list State.tcp_sender)
         (List.map (fun (_, tcp) -> Tcp.Sender.capture tcp) tcps);
     ]
    @ optional "registry" State.registry
        (Option.map Obs.Registry.capture registry)
    @ optional "journal" journal_codec (Option.map Journal.entries journal))

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

(* [Ok None] when the section is absent. *)
let find sections name codec =
  match List.find_opt (fun s -> String.equal (Codec.name s) name) sections with
  | None -> Ok None
  | Some s -> Result.map Option.some (Codec.read codec s)

let require sections name codec =
  match find sections name codec with
  | Ok None -> Error (Codec.Malformed (Printf.sprintf "missing section %S" name))
  | Ok (Some v) -> Ok v
  | Error _ as e -> e

let read_meta sections =
  let ( let* ) = Result.bind in
  let* meta = require sections "meta" meta in
  let* config = require sections "config" State.sharing_config in
  Ok (meta, config)

(* Rebuild the identical session (same creation order, same event-id
   assignment), then overlay the captured state.  The scheduler goes
   first — component restores re-arm their events into it. *)
let restore ~config ~sched_st ~net_st ~rla_st ~tcp_sts ~registry_st ~entries =
  let registry = Option.map (fun _ -> Obs.Registry.create ()) registry_st in
  let session = Experiments.Sharing.setup ?registry config in
  let net = session.Experiments.Sharing.net in
  Sim.Scheduler.restore (Net.Network.scheduler net) sched_st;
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
    Option.map
      (fun entries ->
        let j = Journal.create () in
        List.iter (Journal.record j) entries;
        Option.iter (Journal.attach j) registry;
        j)
      entries
  in
  (session, registry, journal)

let load ~path =
  let ( let* ) = Result.bind in
  let* meta, config, session, registry, journal =
    Result.map_error
      (fun e -> Codec_error e)
      (let* sections = Codec.load_file ~path in
       let* meta, config = read_meta sections in
       let* sched_st = require sections "scheduler" State.scheduler in
       let* net_st = require sections "network" State.network in
       let* rla_st = require sections "rla" State.rla_sender in
       let* tcp_sts = require sections "tcp" (Codec.list State.tcp_sender) in
       let* registry_st = find sections "registry" State.registry in
       let* entries = find sections "journal" journal_codec in
       match
         restore ~config ~sched_st ~net_st ~rla_st ~tcp_sts ~registry_st
           ~entries
       with
       | session, registry, journal ->
           Ok (meta, config, session, registry, journal)
       | exception Invalid_argument msg -> Error (Codec.Malformed msg))
  in
  match
    Sim.Scheduler.unrestored
      (Net.Network.scheduler session.Experiments.Sharing.net)
  with
  | [] -> Ok { config; session; registry; journal; time = meta.time }
  | ids -> Error (Unclaimed_events ids)

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
