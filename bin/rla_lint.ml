(* rla_lint — determinism and domain-safety linter for the repo's own
   sources.

   The whole reproduction rests on runs being byte-identical for a
   fixed seed at any --jobs/--shards; this CLI makes the sources that
   carry that guarantee fail the build when they reach for wall clocks,
   ambient randomness, polymorphic compare in hot paths, unordered
   Hashtbl iteration on exporter-feeding paths, shared mutable state
   reachable from worker domains, or allocations in annotated hot
   functions. *)

let list_rules () =
  List.iter
    (fun (r : Lint.Rules.t) ->
      let scope =
        match r.Lint.Rules.scope with
        | Lint.Rules.All -> "everywhere"
        | Lint.Rules.Dirs ds -> String.concat "," ds
      in
      Printf.printf "%-23s %-9s %-40s %s\n" r.Lint.Rules.name
        (Lint.Finding.severity_to_string r.Lint.Rules.severity)
        scope r.Lint.Rules.summary)
    Lint.Rules.all

let run_lint rules format json strict list_only graph paths =
  if list_only then begin
    list_rules ();
    0
  end
  else
    let rules =
      match rules with
      | [] -> None
      | rs ->
          Some (List.concat_map (fun r -> String.split_on_char ',' r) rs)
    in
    let paths = match paths with [] -> [ "lib" ] | ps -> ps in
    if graph then (
      match Lint.Driver.escape_graph ~paths () with
      | listing ->
          print_string listing;
          0
      | exception Invalid_argument msg ->
          prerr_endline msg;
          2)
    else
      let format = if json then "json" else format in
      match Lint.Driver.run ?rules ~paths () with
      | findings ->
          (match format with
          | "json" ->
              print_endline
                (Rla_json.Json.to_string (Lint.Driver.to_json findings))
          | "sarif" ->
              print_endline
                (Rla_json.Json.to_string (Lint.Driver.to_sarif findings))
          | _ ->
              print_string (Lint.Driver.render_text findings);
              let errors =
                List.length
                  (List.filter
                     (fun f -> f.Lint.Finding.severity = Lint.Finding.Error)
                     findings)
              in
              let warnings = List.length findings - errors in
              if findings <> [] || errors > 0 then
                Printf.printf "%d error(s), %d warning(s)\n" errors warnings);
          Lint.Driver.exit_code ~strict findings
      | exception Invalid_argument msg ->
          prerr_endline msg;
          2

open Cmdliner

let rules_arg =
  let doc =
    "Comma-separated rule names to enable (default: all).  Repeatable."
  in
  Arg.(value & opt_all string [] & info [ "rules" ] ~docv:"RULES" ~doc)

let format_arg =
  let doc = "Output format: $(b,text), $(b,json) or $(b,sarif)." in
  Arg.(
    value
    & opt (enum [ ("text", "text"); ("json", "json"); ("sarif", "sarif") ])
        "text"
    & info [ "format" ] ~docv:"FORMAT" ~doc)

let json_arg =
  let doc = "Emit findings as a JSON report on stdout (= --format json)." in
  Arg.(value & flag & info [ "json" ] ~doc)

let strict_arg =
  let doc = "Treat warnings (advisory findings) as errors for the exit code." in
  Arg.(value & flag & info [ "strict" ] ~doc)

let list_arg =
  let doc = "List the known rules with scope and severity, then exit." in
  Arg.(value & flag & info [ "list-rules" ] ~doc)

let graph_arg =
  let doc =
    "Dump the cross-module escape graph (nodes, worker roots, resolved \
     edges, reachability) instead of linting."
  in
  Arg.(value & flag & info [ "graph" ] ~doc)

let paths_arg =
  let doc = "Files or directories to lint (default: lib)." in
  Arg.(value & pos_all string [] & info [] ~docv:"PATH" ~doc)

let cmd =
  let doc = "statically enforce the replay-identical guarantee" in
  let man =
    [
      `S Manpage.s_description;
      `P
        "Parses the repo's OCaml sources with compiler-libs and reports \
         determinism hazards: wall-clock reads, ambient randomness, \
         polymorphic compare/hash in hot-path libraries, unordered Hashtbl \
         iteration on exporter-feeding paths, missing .mli interfaces and \
         exported-but-unreferenced values.";
      `P
        "A cross-module escape pass roots every Domain.spawn and \
         Job.create closure, propagates worker-domain reachability over \
         the call graph, and reports module-level mutable state \
         (shared-mutable-capture) and non-reentrant ambient stdlib calls \
         (domain-unsafe-call) that workers can reach.  Functions declared \
         (* lint: hot <name> -- <reason> *) are scanned for allocation \
         constructs (alloc-hot), and hot-coverage verifies the \
         annotations name real exported functions.";
      `P
        "Suppress a finding in source with (* lint: allow <rule> -- \
         <reason> *) on the offending or preceding line, or (* lint: \
         allow-file <rule> -- <reason> *) for a whole file.  The reason is \
         mandatory.";
      `S Manpage.s_exit_status;
      `P "0 on a clean tree, 1 if any error finding, 2 on usage errors.";
    ]
  in
  Cmd.v
    (Cmd.info "rla_lint" ~doc ~man)
    Term.(
      const run_lint $ rules_arg $ format_arg $ json_arg $ strict_arg
      $ list_arg $ graph_arg $ paths_arg)

let () = exit (Cmd.eval' cmd)
