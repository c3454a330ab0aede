(* Orchestration: expand targets, parse each source once, run the
   per-file, project-shape and cross-module (escape graph, alloc-hot)
   checks, filter by rule scope and --rules, apply suppression
   annotations, and render text, JSON or SARIF. *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let parse_impl ~path text =
  let lexbuf = Lexing.from_string text in
  Location.init lexbuf path;
  match Parse.implementation lexbuf with
  | ast -> Ok ast
  | exception e -> Error (Printexc.to_string e)

let parse_interface path =
  match read_file path with
  | text -> (
      let lexbuf = Lexing.from_string text in
      Location.init lexbuf path;
      match Parse.interface lexbuf with
      | sg -> Ok sg
      | exception e -> Error (Printexc.to_string e))
  | exception Sys_error e -> Error e

(* --- file discovery ------------------------------------------------- *)

let is_source path =
  Filename.check_suffix path ".ml" || Filename.check_suffix path ".mli"

let rec walk acc path =
  if Sys.is_directory path then
    Sys.readdir path |> Array.to_list
    |> List.sort String.compare
    |> List.fold_left
         (fun acc name ->
           if name = "" || name.[0] = '.' || name.[0] = '_' then acc
           else walk acc (Filename.concat path name))
         acc
  else if is_source path then path :: acc
  else acc

let expand_targets paths =
  List.concat_map
    (fun p ->
      if not (Sys.file_exists p) then
        invalid_arg (Printf.sprintf "rla_lint: no such file or directory: %s" p)
      else List.rev (walk [] p))
    paths

let strip_trailing_slash p =
  let n = String.length p in
  if n > 1 && p.[n - 1] = '/' then String.sub p 0 (n - 1) else p

(* A file's scope key places it for Rules.in_scope: "lib/<sub>" for
   library code, the tree name for bin/bench/test/examples, None for
   anything else (fixtures passed by bare relative path check against
   every rule).  A lib component wins over a tree name so fixture
   layouts like [scoped/lib/obs/...] keep their library scoping. *)
let scope_key path =
  let components = String.split_on_char '/' path in
  let rec lib_of = function
    | "lib" :: next :: _ -> Some ("lib/" ^ next)
    | _ :: tl -> lib_of tl
    | [] -> None
  in
  match lib_of components with
  | Some k -> Some k
  | None ->
      List.find_opt
        (fun c ->
          List.exists (String.equal c) [ "bin"; "bench"; "test"; "examples" ])
        components

(* --- rule selection ------------------------------------------------- *)

let resolve_rules = function
  | None -> Rules.names
  | Some requested ->
      List.iter
        (fun r ->
          if not (List.exists (String.equal r) Rules.names) then
            invalid_arg
              (Printf.sprintf "rla_lint: unknown rule %S (see --list-rules)" r))
        requested;
      requested @ Rules.always_on

let keep_finding ~enabled (f : Finding.t) =
  List.exists (String.equal f.Finding.rule) enabled
  &&
  match Rules.find f.Finding.rule with
  | None -> true
  | Some rule -> Rules.in_scope rule ~scope_key:(scope_key f.Finding.file)

(* --- unused-export target detection -------------------------------- *)

let immediate_subdirs dir =
  Sys.readdir dir |> Array.to_list
  |> List.sort String.compare
  |> List.filter_map (fun name ->
         let p = Filename.concat dir name in
         if name <> "" && name.[0] <> '.' && name.[0] <> '_'
            && Sys.is_directory p
         then Some p
         else None)

let unused_export_inputs paths =
  List.filter_map
    (fun p ->
      let p = strip_trailing_slash p in
      if
        Sys.file_exists p
        && Sys.is_directory p
        && String.equal (Filename.basename p) "lib"
      then
        let root = Filename.dirname p in
        let search_roots =
          p
          :: List.filter Sys.file_exists
               (List.map (Filename.concat root)
                  [ "bin"; "test"; "bench"; "perfbench"; "examples" ])
        in
        let search_files =
          List.concat_map (fun r -> List.rev (walk [] r)) search_roots
        in
        let lib_dirs =
          List.map
            (fun sub ->
              ( sub,
                List.filter (fun f -> Filename.check_suffix f ".mli")
                  (List.rev (walk [] sub)) ))
            (immediate_subdirs p)
        in
        Some (lib_dirs, search_files)
      else None)
    paths

(* --- shared parse pass ---------------------------------------------- *)

type parsed = {
  ml_files : string list;
  asts : (string * Parsetree.structure) list;  (* files that parsed *)
  parse_failures : Finding.t list;
  annots_by_file : (string * Annot.t list) list;
  hots_by_file : (string * Annot.hot list) list;
  annot_findings : Finding.t list;
}

let parse_everything paths =
  let files = expand_targets paths in
  let ml_files = List.filter (fun f -> Filename.check_suffix f ".ml") files in
  (* Annotations (and malformed-annotation findings) come from every
     source file, .mli included, so unused-export can be waived in the
     interface that declares the value. *)
  let annots_by_file, hots_by_file, annot_findings =
    List.fold_left
      (fun (tbl, hots, findings) file ->
        match read_file file with
        | text ->
            let annots, hot, bad =
              Annot.collect ~file ~valid_rules:Rules.names text
            in
            ((file, annots) :: tbl, (file, hot) :: hots, bad @ findings)
        | exception Sys_error e ->
            ( tbl,
              hots,
              Finding.make ~file ~line:1 ~rule:"parse-error"
                ~severity:Finding.Error e
              :: findings ))
      ([], [], []) files
  in
  let asts, parse_failures =
    List.fold_left
      (fun (asts, failures) file ->
        match read_file file with
        | exception Sys_error e ->
            ( asts,
              Finding.make ~file ~line:1 ~rule:"parse-error"
                ~severity:Finding.Error e
              :: failures )
        | text -> (
            match parse_impl ~path:file text with
            | Ok ast -> ((file, ast) :: asts, failures)
            | Error msg ->
                ( asts,
                  Finding.make ~file ~line:1 ~rule:"parse-error"
                    ~severity:Finding.Error msg
                  :: failures )))
      ([], []) ml_files
  in
  {
    ml_files;
    asts = List.rev asts;
    parse_failures;
    annots_by_file;
    hots_by_file;
    annot_findings;
  }

(* --- main entry ----------------------------------------------------- *)

let run ?rules ~paths () =
  let enabled = resolve_rules rules in
  let on r = List.exists (String.equal r) enabled in
  let p = parse_everything paths in
  let ast_findings =
    List.concat_map (fun (file, ast) -> Ast_check.check_impl ~file ast) p.asts
  in
  let parse_impl_file file =
    match List.assoc_opt file p.asts with
    | Some ast -> Ok ast
    | None -> Error "parse failure"
  in
  let project_findings =
    Project_check.mli_required ~ml_files:p.ml_files
    @ Project_check.ckpt_coverage ~parse_impl:parse_impl_file ~parse_interface
        ~ml_files:p.ml_files
    @ List.concat_map
        (fun (lib_dirs, search_files) ->
          Project_check.unused_export ~parse_interface ~lib_dirs ~search_files)
        (unused_export_inputs paths)
  in
  let escape_findings =
    if on "shared-mutable-capture" || on "domain-unsafe-call" then
      Escape.check p.asts
    else []
  in
  let hot_findings =
    if on "alloc-hot" || on "hot-coverage" then
      List.concat_map
        (fun (file, ast) ->
          match List.assoc_opt file p.hots_by_file with
          | None | Some [] -> []
          | Some hots ->
              let mli = Filename.remove_extension file ^ ".mli" in
              let interface =
                if Sys.file_exists mli then
                  match parse_interface mli with
                  | Ok sg -> Some sg
                  | Error _ -> None
                else None
              in
              Hot_check.check ~file ~hots ~interface ast)
        p.asts
    else []
  in
  let suppressed (f : Finding.t) =
    match List.assoc_opt f.Finding.file p.annots_by_file with
    | None -> false
    | Some annots -> List.exists (fun a -> Annot.suppresses a f) annots
  in
  p.annot_findings @ p.parse_failures @ ast_findings @ project_findings
  @ escape_findings @ hot_findings
  |> List.filter (fun f -> keep_finding ~enabled f && not (suppressed f))
  |> List.sort_uniq Finding.compare

let escape_graph ~paths () =
  let p = parse_everything paths in
  Escape.dump p.asts

let hot_annotations ~paths () =
  let p = parse_everything paths in
  List.concat_map
    (fun (file, hots) ->
      List.map (fun (h : Annot.hot) -> (file, h.Annot.target)) hots)
    (List.sort (fun (a, _) (b, _) -> String.compare a b) p.hots_by_file)

(* --- rendering ------------------------------------------------------ *)

let render_text findings =
  String.concat "" (List.map (fun f -> Finding.to_string f ^ "\n") findings)

let count sev findings =
  List.length (List.filter (fun f -> f.Finding.severity = sev) findings)

let to_json findings =
  Json.Obj
    [
      ("tool", Json.String "rla_lint");
      ( "findings",
        Json.List
          (List.map
             (fun (f : Finding.t) ->
               Json.Obj
                 [
                   ("file", Json.String f.Finding.file);
                   ("line", Json.Int f.Finding.line);
                   ("col", Json.Int f.Finding.col);
                   ("rule", Json.String f.Finding.rule);
                   ( "severity",
                     Json.String (Finding.severity_to_string f.Finding.severity)
                   );
                   ("message", Json.String f.Finding.message);
                 ])
             findings) );
      ("errors", Json.Int (count Finding.Error findings));
      ("warnings", Json.Int (count Finding.Warning findings));
    ]

(* Minimal SARIF 2.1.0: one run, the rule table from the registry, one
   result per finding.  Enough for code-scanning UIs to ingest. *)
let to_sarif findings =
  let level (f : Finding.t) =
    match f.Finding.severity with
    | Finding.Error -> "error"
    | Finding.Warning -> "warning"
  in
  Json.Obj
    [
      ("version", Json.String "2.1.0");
      ( "$schema",
        Json.String
          "https://json.schemastore.org/sarif-2.1.0.json" );
      ( "runs",
        Json.List
          [
            Json.Obj
              [
                ( "tool",
                  Json.Obj
                    [
                      ( "driver",
                        Json.Obj
                          [
                            ("name", Json.String "rla_lint");
                            ( "rules",
                              Json.List
                                (List.map
                                   (fun (r : Rules.t) ->
                                     Json.Obj
                                       [
                                         ("id", Json.String r.Rules.name);
                                         ( "shortDescription",
                                           Json.Obj
                                             [
                                               ( "text",
                                                 Json.String r.Rules.summary );
                                             ] );
                                       ])
                                   Rules.all) );
                          ] );
                    ] );
                ( "results",
                  Json.List
                    (List.map
                       (fun (f : Finding.t) ->
                         Json.Obj
                           [
                             ("ruleId", Json.String f.Finding.rule);
                             ("level", Json.String (level f));
                             ( "message",
                               Json.Obj
                                 [ ("text", Json.String f.Finding.message) ]
                             );
                             ( "locations",
                               Json.List
                                 [
                                   Json.Obj
                                     [
                                       ( "physicalLocation",
                                         Json.Obj
                                           [
                                             ( "artifactLocation",
                                               Json.Obj
                                                 [
                                                   ( "uri",
                                                     Json.String
                                                       f.Finding.file );
                                                 ] );
                                             ( "region",
                                               Json.Obj
                                                 [
                                                   ( "startLine",
                                                     Json.Int f.Finding.line
                                                   );
                                                   ( "startColumn",
                                                     Json.Int
                                                       (max 1 f.Finding.col)
                                                   );
                                                 ] );
                                           ] );
                                     ];
                                 ] );
                           ])
                       findings) );
              ];
          ] );
    ]

let of_json json =
  let open Json in
  let field name f obj =
    match member name obj with
    | Some v -> f v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let string_of = function
    | String s -> Ok s
    | _ -> Error "expected string"
  in
  let int_of = function Int i -> Ok i | _ -> Error "expected int" in
  let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e in
  match member "findings" json with
  | Some (List items) ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | item :: rest ->
            let* file = field "file" string_of item in
            let* line = field "line" int_of item in
            let* col = field "col" int_of item in
            let* rule = field "rule" string_of item in
            let* sev_s = field "severity" string_of item in
            let* message = field "message" string_of item in
            let* severity =
              match Finding.severity_of_string sev_s with
              | Some s -> Ok s
              | None -> Error (Printf.sprintf "bad severity %S" sev_s)
            in
            go (Finding.make ~file ~line ~col ~rule ~severity message :: acc)
              rest
      in
      go [] items
  | Some _ -> Error "findings is not a list"
  | None -> Error "missing field \"findings\""

let exit_code ?(strict = false) findings =
  let errors = count Finding.Error findings in
  let warnings = count Finding.Warning findings in
  if errors > 0 || (strict && warnings > 0) then 1 else 0
