(* The repository benchmark: one workload per run, measured from outside
   the simulator through the libraries' public interfaces.

     bench.exe --workload NAME --seed N --seconds S --trace 0|1

   With --trace 0 it repeats the workload for about S seconds and
   reports the end-to-end metrics (medians over the repeats); with
   --trace 1 it runs the workload once plain and once with spans
   recorded, and reports the per-layer metrics.  Metric names and units
   come from BENCHMARK.json in the working directory.  Every run checks
   its own outputs; the last line of stdout is one JSON object
   {correct, attempted, failed, metrics}. *)

module Sharing = Experiments.Sharing
module Scenario = Par.Scenario

let now = Unix.gettimeofday
let fi = float_of_int
let ratio num den = if den = 0.0 then 0.0 else num /. den

(* Allocation is counted as Gc.minor_words: it repeats exactly for a
   given binary and input, while Gc.counters' major/promoted split does
   not.  It sees the calling domain only, so every counted run is
   single-domain. *)
let words () = Gc.minor_words ()

let median xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* One pass of a workload, as seen from outside. *)
type sample = {
  run_s : float;  (** First event through the result. *)
  export_s : float option;  (** [None] when the pass skipped export. *)
  alloc : float;  (** Words allocated over [run_s]. *)
  events : int;
  digest : string;  (** Fingerprint of the result, for repeat checks. *)
  failures : string list;  (** Output checks that did not hold. *)
  layers : (string * float) list;  (** Per-layer counters. *)
  priced : float list;
      (** Cost-model operation counts, in the order of [Micro.costs]:
          heap add/pop, RED decision, scoreboard ack, pool cycle. *)
}

(* One set-up measurement. *)
type probe = {
  setup_s : float;
  p_alloc : float;
  p_events : int;  (** Events fired (the k-ary probe runs one round). *)
  p_failures : string list;
}

(* Seconds to render [render] into memory once: the median of a few
   blocks, each repeating the render for at least 10 ms so that short
   renders stay clear of the timer's resolution. *)
let render_time render =
  let buf = Buffer.create 4096 in
  let block () =
    let t0 = now () in
    let reps = ref 0 in
    while now () -. t0 < 0.01 do
      Buffer.clear buf;
      let ppf = Format.formatter_of_buffer buf in
      render ppf;
      Format.pp_print_flush ppf ();
      incr reps
    done;
    (now () -. t0) /. fi !reps
  in
  median (List.init 9 (fun _ -> block ()))

let tcp_layers (snaps : Tcp.Sender.snapshot list) =
  let sum f = List.fold_left (fun acc s -> acc + f s) 0 snaps in
  let sent = sum (fun s -> s.Tcp.Sender.sent_new + s.Tcp.Sender.retransmits) in
  [
    ("tcp.sent", fi sent);
    ("tcp.retransmit_ratio", ratio (fi (sum (fun s -> s.Tcp.Sender.retransmits))) (fi sent));
    ("tcp.timeouts", fi (sum (fun s -> s.Tcp.Sender.timeouts)));
  ]

let rla_layers (s : Rla.Sender.snapshot) ~window =
  [
    ("rla.delivered", fi s.Rla.Sender.delivered);
    ( "rla.rexmit_ratio",
      ratio (fi s.Rla.Sender.rexmits) (s.Rla.Sender.send_rate *. window) );
    ("rla.congestion_signals", fi s.Rla.Sender.congestion_signals);
    ("rla.cwnd_avg", s.Rla.Sender.cwnd_avg);
  ]

(* ---------------------------------------------------------------- *)
(* Figure-6 tree (Experiments.Sharing), case 3.                     *)

type fig6 = {
  gateway : Experiments.Scenario.gateway;
  duration : float;
  warmup : float;
  registry : bool;  (** Run with a default Obs.Registry and export it. *)
}

let fig6_droptail =
  { gateway = Experiments.Scenario.Droptail; duration = 40.0; warmup = 10.0; registry = false }

let fig6_red_export =
  { gateway = Experiments.Scenario.Red; duration = 40.0; warmup = 10.0; registry = true }

let fig6_config w ~seed =
  {
    (Sharing.default_config ~gateway:w.gateway ~case:(Experiments.Tree.case_of_index 3)) with
    Sharing.duration = w.duration;
    warmup = w.warmup;
    seed;
  }

let fig6_checks (r : Sharing.result) =
  let a, b = r.Sharing.bounds in
  (if r.Sharing.essentially_fair then [] else [ "verdict: not essentially fair" ])
  @
  if a <= r.Sharing.ratio && r.Sharing.ratio <= b then []
  else [ Printf.sprintf "ratio %g outside bounds (%g, %g)" r.Sharing.ratio a b ]

(* Link and pool counters, plus the RED decisions and pool cycles the
   cost model prices. *)
let net_layers net =
  let links = Net.Network.links net in
  let sum ?(only = fun _ -> true) f =
    List.fold_left (fun acc l -> if only l then acc + f (Net.Link.stats l) else acc) 0 links
  in
  let is_red l =
    match (Net.Link.config l).Net.Link.queue with
    | Net.Queue_disc.Red_gateway _ -> true
    | Net.Queue_disc.Droptail | Net.Queue_disc.Bernoulli_loss _ -> false
  in
  let pool = Net.Network.pool net in
  let fresh = Net.Packet.Pool.allocated pool and reused = Net.Packet.Pool.recycled pool in
  ( [
      ("net.link_offered", fi (sum (fun s -> s.Net.Link.offered)));
      ("net.link_dropped", fi (sum (fun s -> s.Net.Link.dropped)));
      ("net.link_marked", fi (sum (fun s -> s.Net.Link.marked)));
      ("net.pool_hit_ratio", ratio (fi reused) (fi (fresh + reused)));
    ],
    fi (sum ~only:is_red (fun s -> s.Net.Link.offered)),
    fi (fresh + reused) )

let fig6_iterate w ~seed ~export spans =
  let config = fig6_config w ~seed in
  let span name f = Spans.record spans name f in
  let registry = if w.registry then Some (Obs.Registry.create ()) else None in
  let session = span "setup" (fun () -> Sharing.setup ?registry config) in
  let net = session.Sharing.net in
  let a0 = words () in
  let t0 = now () in
  span "warmup" (fun () -> Net.Network.run_until net w.warmup);
  Sharing.start_measurement session;
  span "window" (fun () -> Net.Network.run_until net w.duration);
  let t_measure = now () in
  let r = span "measure" (fun () -> Sharing.measure session config) in
  let t1 = now () in
  let alloc = words () -. a0 in
  let events = Sim.Scheduler.events_fired (Net.Network.scheduler net) in
  let net_l, red_decisions, pool_cycles = net_layers net in
  let acks =
    List.fold_left
      (fun acc (_, tcp) -> acc + Tcp.Receiver.received_total (Tcp.Sender.receiver tcp))
      0 session.Sharing.tcps
  in
  let export_s, export_l, export_failures =
    match registry with
    | _ when not export -> (None, [], [])
    | None ->
        let table ppf = Experiments.Report.print_sharing_table ppf ~title:"case 3" [ r ] in
        (Some (span "export" (fun () -> render_time table)), [], [])
    | Some registry ->
        let s, layers, failures = Export.run ~spans ~config ~session ~registry ~seed in
        (Some s, layers, failures)
  in
  let tcp_snaps = List.map (fun f -> f.Sharing.snap) r.Sharing.tcps in
  {
    run_s = t1 -. t0;
    export_s;
    alloc;
    events;
    digest =
      Printf.sprintf "%d %h %h %d %s" events r.Sharing.ratio r.Sharing.jain
        r.Sharing.rla.Rla.Sender.delivered
        (String.concat ","
           (List.map (fun s -> string_of_int s.Tcp.Sender.delivered) tcp_snaps));
    failures = fig6_checks r @ export_failures;
    layers =
      [
        ("sim.events_fired", fi events);
        ("sim.events_per_sim_s", fi events /. w.duration);
        ("experiments.measure_s", t1 -. t_measure);
      ]
      @ net_l @ tcp_layers tcp_snaps
      @ rla_layers r.Sharing.rla ~window:(w.duration -. w.warmup)
      @ export_l;
    priced = [ fi events; red_decisions; fi acks; pool_cycles ];
  }

(* One fig-6 build takes about a millisecond, so a probe times a block
   of builds and reports seconds per build. *)
let fig6_setup_block = 40

let fig6_probe w ~seed () =
  let config = fig6_config w ~seed in
  let flows = ref 0 in
  let t0 = now () in
  for _ = 1 to fig6_setup_block do
    let registry = if w.registry then Some (Obs.Registry.create ()) else None in
    flows := !flows + List.length (Sharing.setup ?registry config).Sharing.tcps
  done;
  {
    setup_s = (now () -. t0) /. fi fig6_setup_block;
    p_alloc = 0.0;
    p_events = 0;
    p_failures =
      (if !flows = 27 * fig6_setup_block then []
       else [ "setup: expected 27 TCP flows per build" ]);
  }

(* ---------------------------------------------------------------- *)
(* 10,648-receiver k-ary tree through the sharded engine.           *)

let kary_duration = 2.0
let kary_warmup = 0.5

let kary_config ~seed ~workers ~duration ~warmup =
  {
    Experiments.Scaling.default_sharded_config with
    Experiments.Scaling.seed;
    workers;
    duration;
    warmup;
  }

(* A run shorter than the 20 ms lookahead: the engine builds every
   shard and fires the first round only, so its wall time is the
   workload's set-up as the public call performs it. *)
let kary_probe ~seed () =
  let config = kary_config ~seed ~workers:1 ~duration:0.01 ~warmup:0.005 in
  let a0 = words () in
  let t0 = now () in
  let r = Experiments.Scaling.run_sharded config in
  let setup_s = now () -. t0 in
  let p_alloc = words () -. a0 in
  match r with
  | Ok r -> { setup_s; p_alloc; p_events = r.Scenario.events_fired; p_failures = [] }
  | Error e ->
      let p_failures = [ "probe: " ^ Scenario.error_to_string e ] in
      { setup_s; p_alloc; p_events = 0; p_failures }

let kary_iterate ?(workers = 1) ~seed ~export spans =
  let config = kary_config ~seed ~workers ~duration:kary_duration ~warmup:kary_warmup in
  let a0 = words () in
  let t0 = now () in
  let r = Spans.record spans "par_run" (fun () -> Experiments.Scaling.run_sharded config) in
  let run_s = now () -. t0 in
  let alloc = words () -. a0 in
  match r with
  | Error e ->
      let failures = [ Scenario.error_to_string e ] in
      { run_s; export_s = None; alloc; events = 0; digest = ""; failures; layers = [];
        priced = [ 0.0; 0.0; 0.0; 0.0 ] }
  | Ok r ->
      let export_s =
        if not export then None
        else
          let table ppf = Experiments.Scaling.print_sharded ppf r in
          Some (Spans.record spans "export" (fun () -> render_time table))
      in
      let tcps = List.map snd r.Scenario.tcp in
      let events = r.Scenario.events_fired in
      {
        run_s;
        export_s;
        alloc;
        events;
        digest =
          Printf.sprintf "%d %d %h %d %s" events r.Scenario.rounds r.Scenario.jain
            r.Scenario.rla.Rla.Sender.delivered
            (Digest.to_hex (Digest.string r.Scenario.fairness_table));
        failures = (if r.Scenario.fairness_table = "" then [ "empty fairness table" ] else []);
        layers =
          [
            ("sim.events_fired", fi events);
            ("sim.events_per_sim_s", fi events /. kary_duration);
            ("par.shards", fi r.Scenario.shards);
            ("par.rounds", fi r.Scenario.rounds);
            ("par.events_per_round", ratio (fi events) (fi r.Scenario.rounds));
          ]
          @ tcp_layers tcps
          @ rla_layers r.Scenario.rla ~window:(kary_duration -. kary_warmup);
        (* Shard networks stay inside the engine: only events and the
           TCP acks of the measured window are countable from here. *)
        priced =
          [ fi events; 0.0; fi (List.fold_left (fun a s -> a + s.Tcp.Sender.delivered) 0 tcps); 0.0 ];
      }

(* ---------------------------------------------------------------- *)

type workload = {
  iterate : export:bool -> Spans.t -> sample;
  export_once : bool;
      (** Export on the first repeat only (when exporting dwarfs the
          run); later repeats measure the run alone. *)
  probe : unit -> probe;
  probes : int;  (** Set-up measurements per run; the median is reported. *)
  probe_inside_run : bool;
      (** Every pass repeats the probe's work, which is subtracted from
          the pass to give the run's own cost. *)
  extra : sample -> (string * float) list * string list;
      (** Traced-run extras: metrics and failed checks. *)
  sim_duration : float;
}

let workloads ~seed =
  let fig6 w =
    {
      iterate = fig6_iterate w ~seed;
      export_once = w.registry;
      probe = fig6_probe w ~seed;
      probes = 15;
      probe_inside_run = false;
      extra = (fun _ -> ([], []));
      sim_duration = w.duration;
    }
  in
  let kary =
    {
      iterate = (fun ~export spans -> kary_iterate ~seed ~export spans);
      export_once = false;
      probe = kary_probe ~seed;
      probes = 5;
      probe_inside_run = true;
      extra =
        (fun plain ->
          (* Advisory: the same run on two domains, as a wall-time
             ratio only (allocation counters see one domain). *)
          let w2 = kary_iterate ~workers:2 ~seed ~export:false (Spans.create ~enabled:false) in
          ( [ ("par.speedup_w2", ratio plain.run_s w2.run_s) ],
            if w2.digest = plain.digest then [] else [ "workers=2 result differs from workers=1" ] ));
      sim_duration = kary_duration;
    }
  in
  [
    ("fig6_droptail", fig6 fig6_droptail);
    ("kary_10k", kary);
    ("fig6_red_export", fig6 fig6_red_export);
  ]

(* ---------------------------------------------------------------- *)

let attempted = ref 0
let failed = ref 0

(* One checked operation; it fails if any of its checks failed. *)
let check what failures =
  incr attempted;
  if failures <> [] then begin
    incr failed;
    List.iter (fun f -> Printf.eprintf "perfbench: %s: %s\n%!" what f) failures
  end

(* The run's own cost: host seconds, words and events of a pass, net
   of the set-up work it contains when that is inside the pass. *)
let run_cost w (s : sample) ~setup_s (p : probe) =
  if w.probe_inside_run then (s.run_s -. setup_s, s.alloc -. p.p_alloc, s.events - p.p_events)
  else (s.run_s, s.alloc, s.events)

let end_to_end w ~seconds =
  let t_start = now () in
  let off = Spans.create ~enabled:false in
  let first = w.iterate ~export:true off in
  check "run 1" first.failures;
  let peak_heap_mb =
    fi ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  (* Set-up probes run between repeats (topped up at the end), so every
     metric samples the whole run rather than one moment of a host
     whose speed drifts. *)
  let probes = ref [] in
  let probe () = probes := w.probe () :: !probes in
  probe ();
  let samples = ref [ first ] in
  let export = not w.export_once in
  (* Start another repeat only if it should end within the budget, so a
     run lasts about [seconds] (at least one repeat) whatever the
     workload's size. *)
  let next_repeat_s () =
    let last = List.hd !samples in
    last.run_s +. if export then Option.value last.export_s ~default:0.0 else 0.0
  in
  while now () -. t_start +. next_repeat_s () <= seconds do
    let s = w.iterate ~export off in
    check
      (Printf.sprintf "run %d" (List.length !samples + 1))
      (s.failures
      @
      if s.digest = first.digest && s.alloc = first.alloc then []
      else
        [
          Printf.sprintf "repeat differs from run 1: %s / %.0f words, run 1 %s / %.0f words"
            s.digest s.alloc first.digest first.alloc;
        ]);
    samples := s :: !samples;
    probe ()
  done;
  while List.length !probes < w.probes do
    probe ()
  done;
  let probes = List.rev !probes in
  let p1 = List.hd probes in
  List.iteri
    (fun i p ->
      check
        (Printf.sprintf "setup probe %d" (i + 1))
        (p.p_failures @ if p.p_alloc = p1.p_alloc then [] else [ "probe allocation differs" ]))
    probes;
  let setup_s = median (List.map (fun p -> p.setup_s) probes) in
  let run_s = median (List.map (fun s -> s.run_s) !samples) in
  let run_s, alloc, events = run_cost w { first with run_s } ~setup_s p1 in
  Printf.printf "repeats: %d runs, %d set-up probes, %d events per run\n"
    (List.length !samples) (List.length probes) events;
  List.iteri
    (fun i s ->
      Printf.printf "  repeat %d: run %.4f s%s\n" (i + 1) s.run_s
        (match s.export_s with Some e -> Printf.sprintf ", export %.6g s" e | None -> ""))
    (List.rev !samples);
  [
    ("setup_s", setup_s);
    ("run_us_per_event", run_s *. 1e6 /. fi events);
    ("export_s", median (List.filter_map (fun s -> s.export_s) !samples));
    ("alloc_words_per_event", alloc /. fi events);
    ("peak_heap_mb", peak_heap_mb);
  ]

let per_layer w =
  let plain = w.iterate ~export:true (Spans.create ~enabled:false) in
  check "plain run" plain.failures;
  let spans = Spans.create ~enabled:true in
  let traced = w.iterate ~export:true spans in
  check "traced run"
    (traced.failures
    @
    if traced.digest = plain.digest && traced.events = plain.events then []
    else [ "traced result differs from the untraced one" ]);
  let extra, extra_failures = w.extra plain in
  check "extra run" extra_failures;
  let probe = w.probe () in
  check "setup probe" probe.p_failures;
  let costs = List.map (fun (name, f) -> (name, f ())) Micro.costs in
  let priced_s =
    List.fold_left2 (fun acc n (_, ns) -> acc +. (n *. ns *. 1e-9)) 0.0 plain.priced costs
  in
  let run_s, alloc, events = run_cost w plain ~setup_s:probe.setup_s probe in
  let total s = s.run_s +. Option.value s.export_s ~default:0.0 in
  let overhead_s = total traced -. total plain in
  print_string "spans of the traced run:\n";
  Format.printf "%a%!" Spans.pp spans;
  List.map (fun (n, v) -> ("span." ^ n ^ ".self_s", v)) (Spans.self_times spans)
  @ traced.layers @ extra @ costs
  @ [
      ("run.wall_s", run_s);
      ("run.alloc_mwords", alloc /. 1e6);
      ("sim.alloc_words_per_event", ratio alloc (fi events));
      ("experiments.setup_s", probe.setup_s);
      ("model.priced_s", priced_s);
      ("model.residual_share", ratio (run_s -. priced_s) run_s);
      ("trace.overhead_s", overhead_s);
      ("trace.overhead_share", ratio overhead_s (total plain));
    ]

(* ---------------------------------------------------------------- *)

(* (name, unit) of every metric of the mode, from BENCHMARK.json. *)
let metric_specs ~trace =
  let fail msg =
    prerr_endline ("perfbench: " ^ msg);
    exit 2
  in
  let doc =
    try Runner.Json.of_string (In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all)
    with Sys_error _ | Failure _ -> fail "cannot read BENCHMARK.json in the working directory"
  in
  let key = if trace then "per_layer" else "end_to_end" in
  let field name spec = Option.bind (Runner.Json.member name spec) Runner.Json.to_string_opt in
  match Runner.Json.member key doc with
  | Some (Runner.Json.List specs) ->
      List.map
        (fun spec ->
          match (field "name" spec, field "unit" spec) with
          | Some name, Some unit -> (name, unit)
          | _ -> fail ("a " ^ key ^ " entry lacks a name or unit"))
        specs
  | _ -> fail ("BENCHMARK.json has no " ^ key ^ " list")

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10.0 and trace = ref 0 in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME workload to run");
      ("--seed", Arg.Set_int seed, "N simulation seed");
      ("--seconds", Arg.Set_float seconds, "S how long to repeat the workload");
      ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let all = workloads ~seed:!seed in
  let w =
    match List.assoc_opt !workload all with
    | Some w -> w
    | None ->
        Printf.eprintf "perfbench: unknown workload %S (known: %s)\n" !workload
          (String.concat ", " (List.map fst all));
        exit 2
  in
  let specs = metric_specs ~trace:(!trace = 1) in
  Printf.printf "workload %s, seed %d, %g s simulated\n%!" !workload !seed w.sim_duration;
  let values = if !trace = 1 then per_layer w else end_to_end w ~seconds:!seconds in
  let metrics =
    List.map
      (fun (name, unit) ->
        (* A layer the workload does not exercise reports 0. *)
        let v = Option.value (List.assoc_opt name values) ~default:0.0 in
        Printf.printf "%-32s %16.6g %s\n" name v unit;
        (name, Runner.Json.Obj [ ("value", Runner.Json.Float v); ("unit", Runner.Json.String unit) ]))
      specs
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name specs) then Printf.printf "(not in BENCHMARK.json) %s\n" name)
    values;
  print_endline
    (Runner.Json.to_string
       (Runner.Json.Obj
          [
            ("correct", Runner.Json.Bool (!failed = 0));
            ("attempted", Runner.Json.Int !attempted);
            ("failed", Runner.Json.Int !failed);
            ("metrics", Runner.Json.Obj metrics);
          ]))
