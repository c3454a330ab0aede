(* The alloc-hot contract.

   A function annotated [(* lint: hot <name> -- <reason> *)] is a
   measured hot path (heap pop, scheduler step, packet pool, ack
   processing): the annotation freezes the claim that its body does not
   allocate, and this pass fails the build when a later edit introduces
   an allocation construct — closures, tuples, records, payload-carrying
   constructors, [ref] cells, [Printf]/[Format]/[List] combinators,
   string building, float-typed lets (boxing).

   Two subtrees are deliberately exempt because they are off the fast
   path by construction: conditionals guarded by [Invariant.enabled]
   (debug-only instrumentation that invariant-smoke proves inert), and
   error exits ([invalid_arg]/[failwith]/[raise]/[assert]) — an
   allocation on the way to an exception is free.  Partial application
   is NOT detected (it is invisible syntactically); reviewers still own
   that one.

   The contract covers what the hot function runs, not just its own
   text: every function of the same file that the body names (outside
   the exempt subtrees below) is scanned too, transitively and once
   each, and its findings are named [hot->callee].  A callee that is
   itself declared hot is scanned under its own name.  Calls into other
   files are not followed; those carry their own annotations.

   [hot-coverage] keeps the annotations honest: each must name a
   binding the file actually defines, so a rename cannot silently
   orphan the contract.  The binding need not be exported: an internal
   fast path carries the contract as well as a public one.

   Blind spots.  The pass reads syntax only, and allocation is decided
   by the types and by the compiler.  It cannot see:
   - a float passed to, or returned from, a function that is not
     inlined: dune's dev profile compiles with [-opaque], so every such
     float is boxed (2 words) at the call — [Heap.top_prio]'s result,
     a [~prio:float] sift argument;
   - an option (or any block) a callee builds and returns, e.g. the
     [Some] from [Hashtbl.find_opt];
   - a write to a float field of a record that also has non-float
     fields, which boxes the float; all-float records store unboxed.
   It also over-reports: a [ref] that never escapes the function is
   kept in a register by ocamlopt and allocates nothing.  The runtime
   backstop is [test/test_alloc.ml], which counts [Gc.minor_words] per
   heap operation, scheduler step, link hop and ack under the dev
   profile. *)

open Parsetree

(* --- binding discovery ---------------------------------------------- *)

let bindings_of_structure items =
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
                    out := (prefix ^ txt, vb.pvb_expr) :: !out
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

(* --- allocation scan ------------------------------------------------ *)

let error_exits = [ "invalid_arg"; "failwith"; "raise"; "raise_notrace" ]

let float_op = function
  | "+." | "-." | "*." | "/." | "Float.add" | "Float.sub" | "Float.mul"
  | "Float.div" ->
      true
  | _ -> false

(* Does an expression read [Invariant.enabled] (directly or via [!])?
   Such a conditional guards debug instrumentation. *)
let mentions_invariant_enabled cond =
  let found = ref false in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          (match e.pexp_desc with
          | Pexp_ident { txt; _ } -> (
              match Escape.longident_parts txt with
              | [ "Invariant"; "enabled" ] | [ "enabled" ] -> found := true
              | parts -> (
                  match List.rev parts with
                  | "enabled" :: _ -> found := true
                  | _ -> ()))
          | _ -> ());
          Ast_iterator.default_iterator.expr it e);
    }
  in
  iterator.expr iterator cond;
  !found

let alloc_head = function
  | "ref" -> Some "ref-cell allocation"
  | "String.concat" | "^" | "@" | "Array.append" | "Bytes.concat" ->
      Some "string/list building"
  | j when String.length j > 7 && String.sub j 0 7 = "Printf." ->
      Some ("call into " ^ j)
  | j when String.length j > 7 && String.sub j 0 7 = "Format." ->
      Some ("call into " ^ j)
  | j when String.length j > 5 && String.sub j 0 5 = "List." ->
      Some ("call into " ^ j ^ " (closure + list cells)")
  | _ -> None

(* Scans one body and returns its findings together with the unqualified
   names it mentions outside the exempt subtrees (callee candidates). *)
let scan_body ~file ~target ~reason body =
  let findings = ref [] in
  let names = ref [] in
  let flag line what =
    findings :=
      Finding.make ~file ~line ~rule:"alloc-hot"
        ~severity:(Rules.severity_of "alloc-hot")
        (Printf.sprintf
           "%s in hot function %s (declared hot: %s); keep the fast path \
            allocation-free or waive with a vetted reason"
           what target reason)
      :: !findings
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun it e ->
          match e.pexp_desc with
          | Pexp_ifthenelse (cond, _, _) when mentions_invariant_enabled cond
            ->
              (* Debug-only branch; invariant-smoke proves it inert. *)
              ()
          | Pexp_assert _ -> ()
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
            when List.mem (Escape.joined txt) error_exits ->
              ()
          | Pexp_fun _ ->
              flag (Escape.line_of e.pexp_loc) "closure allocation";
              Ast_iterator.default_iterator.expr it e
          | Pexp_function _ ->
              flag (Escape.line_of e.pexp_loc) "closure allocation";
              Ast_iterator.default_iterator.expr it e
          | Pexp_tuple _ ->
              flag (Escape.line_of e.pexp_loc) "tuple allocation";
              Ast_iterator.default_iterator.expr it e
          | Pexp_record _ ->
              flag (Escape.line_of e.pexp_loc) "record allocation";
              Ast_iterator.default_iterator.expr it e
          | Pexp_construct ({ txt; _ }, Some _) ->
              flag (Escape.line_of e.pexp_loc)
                (Printf.sprintf "constructor %s allocation"
                   (Escape.joined txt));
              Ast_iterator.default_iterator.expr it e
          | Pexp_variant (tag, Some _) ->
              flag (Escape.line_of e.pexp_loc)
                (Printf.sprintf "variant `%s allocation" tag);
              Ast_iterator.default_iterator.expr it e
          | Pexp_ident { txt = Longident.Lident name; _ } ->
              names := name :: !names
          | Pexp_apply ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _) -> (
              (match alloc_head (Escape.joined txt) with
              | Some what -> flag (Escape.line_of e.pexp_loc) what
              | None -> ());
              Ast_iterator.default_iterator.expr it e)
          | Pexp_let (_, vbs, _) ->
              List.iter
                (fun vb ->
                  match vb.pvb_expr.pexp_desc with
                  | Pexp_apply
                      ({ pexp_desc = Pexp_ident { txt; _ }; _ }, _)
                    when float_op (Escape.joined txt) ->
                      flag (Escape.line_of vb.pvb_loc)
                        "float-valued let (boxing risk)"
                  | _ -> ())
                vbs;
              Ast_iterator.default_iterator.expr it e
          | _ -> Ast_iterator.default_iterator.expr it e);
    }
  in
  iterator.expr iterator body;
  (List.rev !findings, List.rev !names)

(* Skip the binding's own parameter lambdas: [let f a b = body] parses
   as nested [Pexp_fun]s that are not allocations per call. *)
let rec strip_params e =
  match e.pexp_desc with
  | Pexp_fun (_, _, _, body) -> strip_params body
  | Pexp_newtype (_, body) -> strip_params body
  | _ -> e

let is_function e =
  match e.pexp_desc with
  | Pexp_fun _ | Pexp_function _ | Pexp_newtype _ -> true
  | _ -> false

let scan_binding ~file ~target ~reason expr =
  let body = strip_params expr in
  let results =
    match body.pexp_desc with
    | Pexp_function cases ->
        List.map (fun c -> scan_body ~file ~target ~reason c.pc_rhs) cases
    | _ -> [ scan_body ~file ~target ~reason body ]
  in
  (List.concat_map fst results, List.concat_map snd results)

(* The enclosing module path of a dotted binding name ("Pool." for
   "Pool.release"), against which a bare callee name resolves first. *)
let module_prefix target =
  match String.rindex_opt target '.' with
  | None -> ""
  | Some i -> String.sub target 0 (i + 1)

let check ~file ~hots ast =
  let bindings = bindings_of_structure ast in
  let scanned = Hashtbl.create 16 in
  List.iter (fun (h : Annot.hot) -> Hashtbl.replace scanned h.target ()) hots;
  let resolve ~from name =
    List.find_map
      (fun key ->
        match List.assoc_opt key bindings with
        | Some e when is_function e -> Some (key, e)
        | _ -> None)
      [ module_prefix from ^ name; name ]
  in
  (* Scan a hot root's callees depth-first, each binding once per file;
     [root] names the findings. *)
  let rec callees ~root ~reason ~from = function
    | [] -> []
    | name :: rest -> (
        match resolve ~from name with
        | Some (key, e) when not (Hashtbl.mem scanned key) ->
            Hashtbl.replace scanned key ();
            let findings, names =
              scan_binding ~file ~target:(root ^ "->" ^ key) ~reason e
            in
            findings
            @ callees ~root ~reason ~from:key names
            @ callees ~root ~reason ~from rest
        | _ -> callees ~root ~reason ~from rest)
  in
  List.concat_map
    (fun (h : Annot.hot) ->
      match List.assoc_opt h.target bindings with
      | None ->
          [
            Finding.make ~file ~line:h.hot_line ~rule:"hot-coverage"
              ~severity:(Rules.severity_of "hot-coverage")
              (Printf.sprintf
                 "hot annotation names %s, but this file defines no such \
                  binding"
                 h.target);
          ]
      | Some expr ->
          let findings, names =
            scan_binding ~file ~target:h.target ~reason:h.hot_reason expr
          in
          findings
          @ callees ~root:h.target ~reason:h.hot_reason ~from:h.target names)
    hots
