(* Project-shape checks that no single parsetree can see:

   - mli-required: every implementation under lib/ must publish an
     interface, otherwise everything it defines is exported and the
     unused-export analysis (and the human reader) loses the boundary.
   - unused-export: a value declared in an .mli but never referenced
     outside its own .ml/.mli pair is dead API surface (advisory by
     default, an error under --strict).  Callers are searched for in
     lib/ and its sibling bin/, bench/, perfbench/ and examples/ trees;
     test/ is not searched, because a test that references an export
     only to keep it alive is not a caller: the fix for a finding is to
     delete the export, or to move a genuine test seam into the
     module's [For_testing] submodule (whose values are not top-level,
     so this rule never reports them).  Reference detection is textual
     (token `Module.value` with identifier boundaries, outside comments
     and string literals), which matches both same-library siblings
     (`Module.value`) and wrapped-library consumers (`Lib.Module.value`
     contains the token) and deliberately errs on the side of silence.  One exception: `W.Module.value` does
     not count when W is another library's wrapper whose own
     [Module] interface declares [value] — that reference names the
     other library's value.  (An [include]d alias declares nothing
     itself, so `Runner.Json.of_string` still counts for
     [Rla_json.Json.of_string].) *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let has_component path name =
  List.exists (String.equal name) (String.split_on_char '/' path)

(* Executable-only trees: modules there are roots, an .mli would be
   ceremony. *)
let mli_exempt path =
  has_component path "bin"
  || has_component path "bench"
  || has_component path "examples"

let mli_required ~ml_files =
  List.filter_map
    (fun ml ->
      if mli_exempt ml then None
      else
        let mli = Filename.remove_extension ml ^ ".mli" in
        if Sys.file_exists mli then None
        else
          Some
            (Finding.make ~file:ml ~line:1 ~rule:"mli-required"
               ~severity:(Rules.severity_of "mli-required")
               (Printf.sprintf
                  "missing %s: modules under lib/ must declare their \
                   interface"
                  (Filename.basename mli))))
    ml_files

(* --- checkpoint coverage -------------------------------------------- *)

(* A module whose implementation declares a record with mutable fields
   holds run state; in the checkpointed libraries its interface must
   export a [capture]/[restore] pair or checkpoints silently miss it.
   The mutable-record heuristic is deliberately narrow (refs and
   hashtables buried in closures escape it) but it is exactly how this
   codebase structures component state, and false positives are
   waivable with the usual annotation. *)

let first_mutable_record_line ast =
  List.find_map
    (fun item ->
      match item.Parsetree.pstr_desc with
      | Parsetree.Pstr_type (_, decls) ->
          List.find_map
            (fun decl ->
              match decl.Parsetree.ptype_kind with
              | Parsetree.Ptype_record labels ->
                  List.find_map
                    (fun lbl ->
                      match lbl.Parsetree.pld_mutable with
                      | Asttypes.Mutable ->
                          Some
                            (lbl.Parsetree.pld_loc.Location.loc_start
                               .Lexing.pos_lnum)
                      | Asttypes.Immutable -> None)
                    labels
              | _ -> None)
            decls
      | _ -> None)
    ast

let interface_exports signature name =
  List.exists
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd -> String.equal vd.Parsetree.pval_name.txt name
      | _ -> false)
    signature

let ckpt_coverage ~parse_impl ~parse_interface ~ml_files =
  List.filter_map
    (fun ml ->
      if mli_exempt ml then None
      else
        match parse_impl ml with
        | Error _ -> None
        | Ok ast -> (
            match first_mutable_record_line ast with
            | None -> None
            | Some line -> (
                let mli = Filename.remove_extension ml ^ ".mli" in
                (* A missing interface is mli-required's finding. *)
                if not (Sys.file_exists mli) then None
                else
                  match parse_interface mli with
                  | Error _ -> None
                  | Ok signature ->
                      if
                        interface_exports signature "capture"
                        && interface_exports signature "restore"
                      then None
                      else
                        Some
                          (Finding.make ~file:ml ~line ~rule:"ckpt-coverage"
                             ~severity:(Rules.severity_of "ckpt-coverage")
                             (Printf.sprintf
                                "mutable record state without a \
                                 capture/restore pair in %s — checkpoints \
                                 cannot carry this module"
                                (Filename.basename mli))))))
    ml_files

(* --- unused exports ------------------------------------------------- *)

(* The module path component right before position [i] when [hay.[i-1]]
   is a '.', e.g. "Tcp" for the "Receiver.x" in "Tcp.Receiver.x". *)
let qualifier hay i =
  if i < 2 || hay.[i - 1] <> '.' then None
  else
    let stop = i - 1 in
    let start = ref stop in
    while !start > 0 && Annot.is_ident_char hay.[!start - 1] do
      decr start
    done;
    if !start = stop then None else Some (String.sub hay !start (stop - !start))

(* Does [hay] contain [needle] as a module-path token?  The character
   before must not extend an identifier (a preceding '.' is fine: that
   is the wrapping library prefix, unless [foreign] rejects that
   prefix) and the character after must not extend the value name. *)
let contains_token ~foreign hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec search from =
    if from + nn > nh then false
    else
      match String.index_from_opt hay from needle.[0] with
      | None -> false
      | Some i when i + nn > nh -> false
      | Some i ->
          if
            String.sub hay i nn = needle
            && (i = 0 || not (Annot.is_ident_char hay.[i - 1]))
            && (i + nn = nh || not (Annot.is_ident_char hay.[i + nn]))
            && not (Option.fold ~none:false ~some:foreign (qualifier hay i))
          then true
          else search (i + 1)
  in
  nn > 0 && search 0

(* The wrapper module of the library in [dir]: its dune [(name x)], or
   the directory name when there is no dune file (lint fixtures). *)
let wrapper_name dir =
  let declared =
    match read_file (Filename.concat dir "dune") with
    | exception Sys_error _ -> None
    | text -> Escape.library_name_of_dune text
  in
  String.capitalize_ascii
    (Option.value declared ~default:(Filename.basename dir))

let exported_values signature =
  List.filter_map
    (fun item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_value vd ->
          let name = vd.Parsetree.pval_name.txt in
          (* Operators cannot be matched textually; leave them alone. *)
          if name <> "" && Annot.is_ident_char name.[0] then
            Some (name, vd.Parsetree.pval_loc.Location.loc_start.Lexing.pos_lnum)
          else None
      | _ -> None)
    signature

let unused_export ~parse_interface ~lib_dirs ~search_files =
  (* Load every searchable file once, comments and literals blanked:
     a name quoted in prose or data is not a caller. *)
  let corpus =
    List.map
      (fun f -> (f, try Annot.code_only (read_file f) with Sys_error _ -> ""))
      search_files
  in
  (* Every interface once: (library dir, wrapper, mli, module, values). *)
  let interfaces =
    List.concat_map
      (fun (lib_dir, mli_files) ->
        let wrapper = wrapper_name lib_dir in
        List.filter_map
          (fun mli ->
            match parse_interface mli with
            | Error _ -> None
            | Ok signature ->
                Some
                  ( lib_dir,
                    wrapper,
                    mli,
                    Escape.module_of_basename mli,
                    exported_values signature ))
          mli_files)
      lib_dirs
  in
  List.concat_map
    (fun (lib_dir, _, mli, modname, vals) ->
      (* Only the defining .ml/.mli pair is excluded from the search: an
         export that no sibling, bench or binary mentions is dead
         surface even inside its own library. *)
      let stem = Filename.remove_extension mli in
      let outside =
        List.filter (fun (f, _) -> Filename.remove_extension f <> stem) corpus
      in
      List.filter_map
        (fun (value, line) ->
          (* Wrappers of the other libraries whose same-named module
             declares this value itself. *)
          let wrappers =
            List.filter_map
              (fun (dir, wrapper, _, m, vs) ->
                if dir <> lib_dir && m = modname && List.mem_assoc value vs
                then Some wrapper
                else None)
              interfaces
          in
          let foreign w = List.mem w wrappers in
          let needle = modname ^ "." ^ value in
          if
            List.exists
              (fun (_, text) -> contains_token ~foreign text needle)
              outside
          then None
          else
            Some
              (Finding.make ~file:mli ~line ~rule:"unused-export"
                 ~severity:(Rules.severity_of "unused-export")
                 (Printf.sprintf
                    "%s is exported but never referenced outside %s" needle
                    (Filename.basename mli))))
        vals)
    interfaces
