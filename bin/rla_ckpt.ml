(* rla_ckpt — inspect, validate and diff checkpoint files.

     rla_ckpt inspect  run.ckpt          # header, sections, config
     rla_ckpt validate run.ckpt          # full rebuild + restore check
     rla_ckpt diff     a.journal b.journal   # first divergence
     rla_ckpt diff     a.ckpt b.ckpt         # via embedded journals

   [validate] actually rebuilds the topology and restores every
   component (the same path `rla_sim --restore` takes), so a zero exit
   means the file will resume; [inspect] only parses the header and the
   cheap meta/config sections.  [diff] pinpoints the first event where
   two runs diverged — the tool for "my resumed run differs" triage. *)

let pf = Printf.printf

let load_sections path =
  match Ckpt.Codec.load_file ~path with
  | Ok sections -> sections
  | Error e ->
      Printf.eprintf "rla_ckpt: %s: %s\n" path (Ckpt.Codec.error_to_string e);
      exit 1

let inspect path =
  let sections = load_sections path in
  pf "%s: checkpoint format v%d, %d section(s)\n" path Ckpt.Codec.version
    (List.length sections);
  (match Ckpt.Sharing_ckpt.read_meta sections with
  | Error e -> pf "  meta: unreadable (%s)\n" (Ckpt.Codec.error_to_string e)
  | Ok (meta, config) ->
      pf "  captured at     t=%g of %g s (warmup %g)\n"
        meta.Ckpt.Sharing_ckpt.time config.Experiments.Sharing.duration
        config.Experiments.Sharing.warmup;
      pf "  experiment      case %s, %s gateways, seed %d, %d TCP flow(s)\n"
        (Experiments.Tree.case_name config.Experiments.Sharing.case)
        (Experiments.Scenario.gateway_name config.Experiments.Sharing.gateway)
        config.Experiments.Sharing.seed meta.Ckpt.Sharing_ckpt.n_tcps);
  pf "  %-12s %10s  %s\n" "section" "bytes" "crc32";
  List.iter
    (fun s ->
      let payload = Ckpt.Codec.payload s in
      pf "  %-12s %10d  %08Lx\n" (Ckpt.Codec.name s) (String.length payload)
        (Ckpt.Codec.crc32 payload))
    sections;
  0

let validate path =
  match Ckpt.Sharing_ckpt.load ~path with
  | Ok loaded ->
      pf "%s: ok — restores at t=%g%s%s\n" path loaded.Ckpt.Sharing_ckpt.time
        (match loaded.Ckpt.Sharing_ckpt.registry with
        | Some _ -> ", with registry"
        | None -> "")
        (match loaded.Ckpt.Sharing_ckpt.journal with
        | Some j ->
            Printf.sprintf ", journal of %d event(s)" (Ckpt.Journal.length j)
        | None -> "");
      0
  | Error e ->
      Printf.eprintf "rla_ckpt: %s: %s\n" path
        (Ckpt.Sharing_ckpt.error_to_string e);
      1

(* A diff operand is either a journal text file or a checkpoint with an
   embedded journal section; sniff by magic. *)
let journal_of path =
  let is_ckpt =
    match In_channel.with_open_bin path (fun ic -> In_channel.really_input_string ic 8) with
    | Some magic -> String.equal magic "RLACKPT1"
    | None -> false
    | exception Sys_error _ -> false
  in
  if is_ckpt then
    match Ckpt.Sharing_ckpt.load ~path with
    | Error e ->
        Printf.eprintf "rla_ckpt: %s: %s\n" path
          (Ckpt.Sharing_ckpt.error_to_string e);
        exit 1
    | Ok { Ckpt.Sharing_ckpt.journal = None; _ } ->
        Printf.eprintf
          "rla_ckpt: %s has no journal section (run was not traced)\n" path;
        exit 1
    | Ok { Ckpt.Sharing_ckpt.journal = Some j; _ } -> j
  else
    match Ckpt.Journal.load ~path with
    | Ok j -> j
    | Error msg ->
        Printf.eprintf "rla_ckpt: %s: %s\n" path msg;
        exit 1

let diff a b =
  let ja = journal_of a and jb = journal_of b in
  match Ckpt.Journal.diff ja jb with
  | None ->
      pf "identical: %d event(s)\n" (Ckpt.Journal.length ja);
      0
  | Some d ->
      let side path = function
        | Some e -> Printf.sprintf "%s: %s" path (Ckpt.Journal.entry_to_string e)
        | None -> Printf.sprintf "%s: <journal ends>" path
      in
      pf "first divergence at event %d:\n  %s\n  %s\n" d.Ckpt.Journal.index
        (side a d.Ckpt.Journal.a) (side b d.Ckpt.Journal.b);
      1

open Cmdliner

let file_arg n docv doc = Arg.(required & pos n (some string) None & info [] ~docv ~doc)

let inspect_cmd =
  let doc = "Print a checkpoint's header, sections and embedded config" in
  Cmd.v (Cmd.info "inspect" ~doc)
    Term.(const inspect $ file_arg 0 "FILE" "Checkpoint file.")

let validate_cmd =
  let doc =
    "Fully rebuild and restore a checkpoint; exit 0 iff it would resume"
  in
  Cmd.v (Cmd.info "validate" ~doc)
    Term.(const validate $ file_arg 0 "FILE" "Checkpoint file.")

let diff_cmd =
  let doc =
    "Compare two event journals (or checkpoints carrying journals) and \
     report the first divergence"
  in
  Cmd.v (Cmd.info "diff" ~doc)
    Term.(
      const diff
      $ file_arg 0 "A" "First journal or checkpoint."
      $ file_arg 1 "B" "Second journal or checkpoint.")

let cmd =
  let doc = "Inspect, validate and diff rla checkpoint files" in
  Cmd.group (Cmd.info "rla_ckpt" ~doc) [ inspect_cmd; validate_cmd; diff_cmd ]

let () = exit (Cmd.eval' cmd)
