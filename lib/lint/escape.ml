(* The cross-module call/escape graph.

   The per-file rules of PR 4 are lexical: they can say "this line
   reads the wall clock" but not "this line runs on a worker domain".
   This module closes that gap without a typing pass:

   - every top-level (and nested-module) [let] binding in the analysed
     files becomes a node, carrying the identifier paths its body
     references;
   - nodes are module-qualified using the owning dune library's
     [(name ...)] (wrapped libraries: [lib/net/packet.ml] is
     [Net.Packet], [lib/core/fairness.ml] is [Rla.Fairness]);
   - "runs on a worker domain" is rooted at every [Domain.spawn] and at
     every closure handed to [Job.create]/[Job.pure] (those closures
     are executed by [Runner.Pool] workers).  A lambda argument becomes
     its own synthetic root node; an identifier argument roots the
     binding it resolves to; anything unresolvable conservatively roots
     the enclosing binding;
   - reachability is propagated over resolved references, so a rule
     fires on [Domain.spawn worker] → [helper] → [shared ref] even
     though no single file shows the chain.

   Soundness caveats (documented in DESIGN.md §11): resolution is
   purely syntactic, so closures smuggled through record fields,
   functors or first-class modules are invisible, and unresolvable
   references are dropped rather than widened.  The pass
   under-approximates reachability but never mistakes module-qualified
   code for something else, which is the right trade-off for a linter
   that must stay quiet on clean code. *)

open Parsetree

type reference = { parts : string list; ref_line : int }

type root_kind = Spawn of int | Job_closure of int | Spawn_target

type node = {
  file : string;
  path : string;  (* dotted binding path inside the file, e.g. "Pool.release" *)
  prefix : string;  (* enclosing nested-module prefix, "" or "Pool." *)
  line : int;
  refs : reference list;
  unsafe : (string * int) list;  (* deny-listed ambient ident, call line *)
  mutable_kind : string option;  (* Some "ref cell" etc. for mutable bindings *)
  mutable root : root_kind option;
}

type t = {
  nodes : node list;  (* files in sorted order, source order within a file *)
  by_id : (string, node) Hashtbl.t;  (* "<file>#<path>" *)
  module_files : (string, string) Hashtbl.t;  (* "Net.Packet" -> file *)
  module_id_of_file : (string, string) Hashtbl.t;
}

let node_id n = n.file ^ "#" ^ n.path

(* --- dune library discovery ----------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

(* The [(name x)] of the first [(library ...)] stanza.  The repo's dune
   files are plain enough that splitting on parentheses and blanks
   stands in for a sexp parser. *)
let library_name_of_dune text =
  let rec after kw = function
    | w :: (_ :: _ as rest) ->
        if String.equal w kw then Some rest else after kw rest
    | _ -> None
  in
  String.map (function '(' | ')' | '\n' | '\t' | '\r' -> ' ' | c -> c) text
  |> String.split_on_char ' '
  |> List.filter (fun w -> not (String.equal w ""))
  |> after "library"
  |> Fun.flip Option.bind (after "name")
  |> Option.map List.hd

let module_of_basename file =
  String.capitalize_ascii (Filename.remove_extension (Filename.basename file))

let module_id_for ~dune_cache file =
  let dir = Filename.dirname file in
  let libname =
    match Hashtbl.find_opt dune_cache dir with
    | Some v -> v
    | None ->
        let v =
          let dune = Filename.concat dir "dune" in
          if Sys.file_exists dune then
            Option.map String.capitalize_ascii
              (library_name_of_dune (read_file dune))
          else None
        in
        Hashtbl.add dune_cache dir v;
        v
  in
  match libname with
  | Some lib -> lib ^ "." ^ module_of_basename file
  | None -> module_of_basename file

(* --- parsetree extraction ------------------------------------------- *)

let line_of loc = loc.Location.loc_start.Lexing.pos_lnum

let rec longident_parts = function
  | Longident.Lident s -> [ s ]
  | Longident.Ldot (p, s) -> longident_parts p @ [ s ]
  | Longident.Lapply (p, _) -> longident_parts p

let joined lid = String.concat "." (longident_parts lid)

let bare_print_names =
  [
    "print_string"; "print_endline"; "print_newline"; "print_int";
    "print_float"; "print_char"; "prerr_string"; "prerr_endline";
    "prerr_newline"; "stdout"; "stderr";
  ]

let format_ambient =
  [
    "printf"; "eprintf"; "std_formatter"; "err_formatter"; "print_string";
    "print_newline"; "print_flush";
  ]

(* Idents whose target is ambient process-global state that two domains
   must not touch concurrently. *)
let unsafe_ident parts =
  match parts with
  | [ "Format"; f ] when List.mem f format_ambient ->
      Some (String.concat "." parts)
  | [ "Printf"; f ] when f = "printf" || f = "eprintf" ->
      Some (String.concat "." parts)
  | [ f ] when List.mem f bare_print_names -> Some f
  | [ "Stdlib"; f ] when List.mem f bare_print_names ->
      Some (String.concat "." parts)
  | "Random" :: f :: _ when f <> "State" -> Some (String.concat "." parts)
  | _ -> None

let is_spawn_head e =
  match e.pexp_desc with
  | Pexp_ident { txt; _ } -> (
      match joined txt with
      | "Domain.spawn" -> Some `Spawn
      | j
        when j = "Job.create" || j = "Job.pure"
             || j = "Runner.Job.create" || j = "Runner.Job.pure" ->
          Some `Job
      | _ -> None)
  | _ -> None

type extraction = {
  mutable x_refs : reference list;
  mutable x_unsafe : (string * int) list;
  (* idents handed to Domain.spawn / Job.create: resolve later *)
  mutable x_spawn_idents : (string list * int) list;
  (* lambdas handed to Domain.spawn / Job.create *)
  mutable x_closures : (int * extraction * [ `Spawn | `Job ]) list;
  (* a non-ident, non-lambda spawn argument: root the enclosing binding *)
  mutable x_conservative : bool;
}

let fresh () =
  {
    x_refs = [];
    x_unsafe = [];
    x_spawn_idents = [];
    x_closures = [];
    x_conservative = false;
  }

let rec extract_expr acc e =
  let record_ident lid loc =
    let parts = longident_parts lid in
    acc.x_refs <- { parts; ref_line = line_of loc } :: acc.x_refs;
    match unsafe_ident parts with
    | Some name -> acc.x_unsafe <- (name, line_of loc) :: acc.x_unsafe
    | None -> ()
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ident { txt; loc } ->
              record_ident txt loc;
              Ast_iterator.default_iterator.expr it e
          | Pexp_apply (head, args) when is_spawn_head head <> None ->
              let kind =
                match is_spawn_head head with
                | Some k -> k
                | None -> assert false
              in
              List.iter
                (fun (label, arg) ->
                  match (label, arg.pexp_desc) with
                  (* Labelled arguments ([~label], optional args) are
                     coordinator-side data, not the worker body. *)
                  | (Asttypes.Labelled _ | Asttypes.Optional _), _ ->
                      Ast_iterator.default_iterator.expr it arg
                  | Asttypes.Nolabel, (Pexp_fun _ | Pexp_function _) ->
                      let inner = fresh () in
                      extract_expr inner arg;
                      acc.x_closures <-
                        (line_of arg.pexp_loc, inner, kind) :: acc.x_closures
                  | Asttypes.Nolabel, Pexp_ident { txt; loc } ->
                      record_ident txt loc;
                      acc.x_spawn_idents <-
                        (longident_parts txt, line_of loc)
                        :: acc.x_spawn_idents
                  | Asttypes.Nolabel, Pexp_constant _ -> ()
                  | Asttypes.Nolabel, _ ->
                      acc.x_conservative <- true;
                      Ast_iterator.default_iterator.expr it arg)
                args;
              (* the head ident itself *)
              Ast_iterator.default_iterator.expr it head
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  iterator.expr iterator e

(* --- module-level mutable-binding detection ------------------------- *)

(* Label-name sets of every record type (in this file) that declares a
   [mutable] field; a top-level record literal is mutable state exactly
   when its field names fit one of these, so files that mix immutable
   config records with mutable state records do not over-flag. *)
let rec mutable_label_sets items =
  List.concat_map
    (fun item ->
      match item.pstr_desc with
      | Pstr_type (_, decls) ->
          List.filter_map
            (fun d ->
              match d.ptype_kind with
              | Ptype_record labels
                when List.exists
                       (fun l -> l.pld_mutable = Asttypes.Mutable)
                       labels ->
                  Some
                    (List.sort String.compare
                       (List.map (fun l -> l.pld_name.Asttypes.txt) labels))
              | _ -> None)
            decls
      | Pstr_module { pmb_expr = { pmod_desc = Pmod_structure inner; _ }; _ }
        ->
          mutable_label_sets inner
      | _ -> [])
    items

let mutable_kind_of ~mutable_labels expr =
  match expr.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
      match joined txt with
      | "ref" -> Some "ref cell"
      | "Hashtbl.create" -> Some "Hashtbl"
      | "Buffer.create" -> Some "Buffer"
      | "Queue.create" -> Some "Queue"
      | "Stack.create" -> Some "Stack"
      | "Bytes.create" | "Bytes.make" -> Some "Bytes"
      | "Array.make" | "Array.init" | "Array.create_float" -> Some "array"
      | _ -> None)
  | Pexp_record (fields, _) ->
      let names =
        List.filter_map
          (fun ({ Asttypes.txt; _ }, _) ->
            match List.rev (longident_parts txt) with
            | last :: _ -> Some last
            | [] -> None)
          fields
      in
      if
        List.exists
          (fun labels -> List.for_all (fun n -> List.mem n labels) names)
          mutable_labels
      then Some "mutable record"
      else None
  | _ -> None

(* --- per-file node extraction --------------------------------------- *)

let nodes_of_structure ~file items =
  let mutable_labels = mutable_label_sets items in
  let out = ref [] in
  let rec go prefix items =
    List.iter
      (fun item ->
        match item.pstr_desc with
        | Pstr_value (_, vbs) ->
            List.iter
              (fun vb ->
                match vb.pvb_pat.ppat_desc with
                | Ppat_var { txt; _ } ->
                    let acc = fresh () in
                    extract_expr acc vb.pvb_expr;
                    let path = prefix ^ txt in
                    let base_line = line_of vb.pvb_loc in
                    let node =
                      {
                        file;
                        path;
                        prefix;
                        line = base_line;
                        refs = List.rev acc.x_refs;
                        unsafe = List.rev acc.x_unsafe;
                        mutable_kind =
                          mutable_kind_of ~mutable_labels vb.pvb_expr;
                        root = (if acc.x_conservative then Some Spawn_target
                                else None);
                      }
                    in
                    out := (node, acc) :: !out;
                    (* Lambdas handed to Domain.spawn/Job become their
                       own root nodes: only what the closure references
                       runs on the worker, not the whole enclosing
                       binding. *)
                    List.iter
                      (fun (cl_line, inner, kind) ->
                        let synth =
                          {
                            file;
                            path =
                              Printf.sprintf "%s.<closure@%d>" path cl_line;
                            prefix;
                            line = cl_line;
                            refs = List.rev inner.x_refs;
                            unsafe = List.rev inner.x_unsafe;
                            mutable_kind = None;
                            root =
                              Some
                                (match kind with
                                | `Spawn -> Spawn cl_line
                                | `Job -> Job_closure cl_line);
                          }
                        in
                        out := (synth, inner) :: !out)
                      acc.x_closures
                | _ -> ())
              vbs
        | Pstr_module
            {
              pmb_name = { txt = Some name; _ };
              pmb_expr = { pmod_desc = Pmod_structure inner; _ };
              _;
            } ->
            go (prefix ^ name ^ ".") inner
        | _ -> ())
      items
  in
  go "" items;
  List.rev !out

(* --- graph construction --------------------------------------------- *)

let build files =
  let files = List.sort (fun (a, _) (b, _) -> String.compare a b) files in
  let dune_cache = Hashtbl.create 16 in
  let module_files = Hashtbl.create 64 in
  let module_id_of_file = Hashtbl.create 64 in
  List.iter
    (fun (file, _) ->
      let mid = module_id_for ~dune_cache file in
      Hashtbl.replace module_id_of_file file mid;
      (* First definition wins on a collision; collisions only happen
         between unrelated executables, which nothing references. *)
      if not (Hashtbl.mem module_files mid) then
        Hashtbl.add module_files mid file)
    files;
  let with_acc =
    List.concat_map (fun (file, ast) -> nodes_of_structure ~file ast) files
  in
  let nodes = List.map fst with_acc in
  let by_id = Hashtbl.create 256 in
  List.iter (fun n -> Hashtbl.replace by_id (node_id n) n) nodes;
  let defs_of_file = Hashtbl.create 64 in
  List.iter
    (fun n ->
      let existing =
        Option.value ~default:[] (Hashtbl.find_opt defs_of_file n.file)
      in
      Hashtbl.replace defs_of_file n.file (n.path :: existing))
    nodes;
  let lookup_binding file rest =
    (* Longest dotted prefix of [rest] that is a binding in [file]:
       [Pool.release.foo] still resolves to [Pool.release]. *)
    let rec try_len k =
      if k = 0 then None
      else
        let cand =
          String.concat "." (List.filteri (fun i _ -> i < k) rest)
        in
        match Hashtbl.find_opt by_id (file ^ "#" ^ cand) with
        | Some n -> Some n
        | None -> try_len (k - 1)
    in
    try_len (List.length rest)
  in
  let graph = { nodes; by_id; module_files; module_id_of_file } in
  let resolve (from : node) (r : reference) =
    let parts = r.parts in
    let capitalized s = s <> "" && s.[0] >= 'A' && s.[0] <= 'Z' in
    let as_module_path () =
      match parts with
      | m0 :: m1 :: (_ :: _ as rest) when capitalized m0 && capitalized m1
        -> (
          match Hashtbl.find_opt module_files (m0 ^ "." ^ m1) with
          | Some file -> lookup_binding file rest
          | None -> None)
      | _ -> None
    in
    let as_sibling () =
      match parts with
      | m0 :: (_ :: _ as rest) when capitalized m0 -> (
          let sibling =
            Filename.concat (Filename.dirname from.file)
              (String.uncapitalize_ascii m0 ^ ".ml")
          in
          match Hashtbl.find_opt defs_of_file sibling with
          | Some _ -> lookup_binding sibling rest
          | None -> None)
      | _ -> None
    in
    let in_own_file () =
      (* Inside nested module [Pool], a bare [grow] means [Pool.grow]
         before it means a top-level [grow]. *)
      let qualified =
        if from.prefix = "" then None
        else
          lookup_binding from.file
            (String.split_on_char '.' (from.prefix ^ String.concat "." parts))
      in
      match qualified with
      | Some _ as hit -> hit
      | None -> lookup_binding from.file parts
    in
    match as_module_path () with
    | Some _ as hit -> hit
    | None -> (
        match as_sibling () with
        | Some _ as hit -> hit
        | None -> in_own_file ())
  in
  (* Root the targets of [Domain.spawn some_function]; if the ident is
     a local binding the resolver cannot see, fall back to rooting the
     enclosing binding — the worker body is somewhere inside it. *)
  List.iter
    (fun (n, acc) ->
      List.iter
        (fun (parts, line) ->
          match resolve n { parts; ref_line = line } with
          | Some target ->
              if target.root = None then target.root <- Some Spawn_target
          | None -> if n.root = None then n.root <- Some (Spawn line))
        acc.x_spawn_idents)
    with_acc;
  (graph, resolve)

type built = {
  graph : t;
  resolve : node -> reference -> node option;
  reachable : (string, string list) Hashtbl.t;
      (* node id -> chain of display names from the root, inclusive *)
}

let display g n =
  let mid =
    Option.value
      ~default:(module_of_basename n.file)
      (Hashtbl.find_opt g.module_id_of_file n.file)
  in
  mid ^ "." ^ n.path

let analyse files =
  let graph, resolve = build files in
  let reachable = Hashtbl.create 256 in
  let queue = Queue.create () in
  List.iter
    (fun n ->
      if n.root <> None && not (Hashtbl.mem reachable (node_id n)) then begin
        Hashtbl.replace reachable (node_id n) [ display graph n ];
        Queue.add n queue
      end)
    graph.nodes;
  while not (Queue.is_empty queue) do
    let n = Queue.pop queue in
    let chain = Hashtbl.find reachable (node_id n) in
    let targets =
      List.filter_map (fun r -> resolve n r) n.refs
      |> List.map (fun t -> (node_id t, t))
      |> List.sort_uniq (fun (a, _) (b, _) -> String.compare a b)
    in
    List.iter
      (fun (id, t) ->
        if not (Hashtbl.mem reachable id) then begin
          Hashtbl.replace reachable id (chain @ [ display graph t ]);
          Queue.add t queue
        end)
      targets
  done;
  { graph; resolve; reachable }

(* --- rules on top of the graph -------------------------------------- *)

let chain_string chain = String.concat " -> " chain

let shared_mutable_capture b =
  List.filter_map
    (fun m ->
      match m.mutable_kind with
      | None -> None
      | Some kind ->
          (* First worker-reachable node (in deterministic node order)
             whose references resolve to this binding. *)
          let toucher =
            List.find_opt
              (fun n ->
                Hashtbl.mem b.reachable (node_id n)
                && List.exists
                     (fun r ->
                       match b.resolve n r with
                       | Some t -> node_id t = node_id m
                       | None -> false)
                     n.refs)
              b.graph.nodes
          in
          Option.map
            (fun (n : node) ->
              let chain = Hashtbl.find b.reachable (node_id n) in
              Finding.make ~file:m.file ~line:m.line
                ~rule:"shared-mutable-capture"
                ~severity:(Rules.severity_of "shared-mutable-capture")
                (Printf.sprintf
                   "module-level %s %s is touched by worker-domain code \
                    (%s); make it Atomic, guard it with a Mutex, or move \
                    it into per-shard state"
                   kind
                   (display b.graph m)
                   (chain_string chain)))
            toucher)
    b.graph.nodes

let domain_unsafe_call b =
  List.concat_map
    (fun n ->
      match Hashtbl.find_opt b.reachable (node_id n) with
      | None -> []
      | Some chain ->
          List.map
            (fun (name, line) ->
              Finding.make ~file:n.file ~line ~rule:"domain-unsafe-call"
                ~severity:(Rules.severity_of "domain-unsafe-call")
                (Printf.sprintf
                   "%s reaches ambient %s from a worker domain (%s); \
                    ambient process state is not domain-safe"
                   (display b.graph n) name (chain_string chain)))
            n.unsafe)
    b.graph.nodes

let check files =
  let b = analyse files in
  shared_mutable_capture b @ domain_unsafe_call b

(* --- graph dump (rla_lint --graph) ---------------------------------- *)

let dump files =
  let b = analyse files in
  let buf = Buffer.create 4096 in
  let roots =
    List.filter (fun n -> n.root <> None) b.graph.nodes
  in
  let reach_count =
    List.length
      (List.filter (fun n -> Hashtbl.mem b.reachable (node_id n)) b.graph.nodes)
  in
  Buffer.add_string buf
    (Printf.sprintf "escape graph: %d nodes, %d roots, %d worker-reachable\n"
       (List.length b.graph.nodes) (List.length roots) reach_count);
  List.iter
    (fun n ->
      let mark =
        match n.root with
        | Some (Spawn l) -> Printf.sprintf " [root: Domain.spawn@%d]" l
        | Some (Job_closure l) -> Printf.sprintf " [root: Job closure@%d]" l
        | Some Spawn_target -> " [root: spawn target]"
        | None -> if Hashtbl.mem b.reachable (node_id n) then " [reachable]"
                  else ""
      in
      let edges =
        List.filter_map (fun r -> b.resolve n r) n.refs
        |> List.map (display b.graph)
        |> List.sort_uniq String.compare
      in
      Buffer.add_string buf
        (Printf.sprintf "%s (%s:%d)%s\n" (display b.graph n) n.file n.line
           mark);
      List.iter
        (fun e -> Buffer.add_string buf (Printf.sprintf "  -> %s\n" e))
        edges)
    b.graph.nodes;
  Buffer.contents buf
