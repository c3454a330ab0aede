(* Parsetree checks.  Everything here is purely syntactic
   (compiler-libs Pparse/Ast_iterator, no typing pass), so the rules
   are deliberately conservative approximations:

   - wall-clock / ambient-rng: exact identifier matches, no false
     positives.
   - poly-compare: flags the unqualified polymorphic [compare] (and
     Hashtbl.hash), [=]/[<>] against a float literal, and comparison
     operators applied to the same record field of two values
     (`a.prio < b.prio`) — the pattern by which polymorphic compare
     sneaks into heap orderings and packet comparisons.  Also
     [max]/[min] (bare or [Stdlib.]) with a syntactically float
     argument — a float literal or a [+.]/[-.]/[*.]/[/.] application:
     the polymorphic versions box both floats on every call.
   - hashtbl-order: exact matches on Hashtbl.iter/fold/to_seq*.

   What the syntax cannot prove is backstopped dynamically by
   Sim.Invariant. *)

open Parsetree

let ident_path lid =
  match Longident.flatten lid with
  | parts -> String.concat "." parts
  | exception _ -> ""

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let wall_clock_idents =
  [ "Unix.gettimeofday"; "Unix.time"; "Unix.gmtime"; "Unix.localtime";
    "Sys.time" ]

let poly_compare_idents =
  [ "compare"; "Stdlib.compare"; "Pervasives.compare"; "Hashtbl.hash";
    "Hashtbl.seeded_hash" ]

let hashtbl_order_idents =
  [ "Hashtbl.iter"; "Hashtbl.fold"; "Hashtbl.to_seq"; "Hashtbl.to_seq_keys";
    "Hashtbl.to_seq_values" ]

let comparison_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let equality_ops = [ "="; "<>" ]

let is_float_literal e =
  match e.pexp_desc with
  | Pexp_constant (Pconst_float _) -> true
  | _ -> false

let minmax_idents = [ "max"; "min"; "Stdlib.max"; "Stdlib.min" ]

let float_arith_ops = [ "+."; "-."; "*."; "/." ]

(* Syntactically a float: a literal, or float arithmetic. *)
let is_float_expr e =
  is_float_literal e
  ||
  match e.pexp_desc with
  | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ }, _)
    ->
      List.mem op float_arith_ops
  | _ -> false

let field_name e =
  match e.pexp_desc with
  | Pexp_field (_, lid) -> (
      match Longident.flatten lid.txt with
      | parts when parts <> [] -> Some (List.nth parts (List.length parts - 1))
      | _ -> None
      | exception _ -> None)
  | _ -> None

let check_impl ~file structure =
  let findings = ref [] in
  let add ~loc rule message =
    let pos = loc.Location.loc_start in
    findings :=
      Finding.make ~file ~line:pos.Lexing.pos_lnum
        ~col:(pos.Lexing.pos_cnum - pos.Lexing.pos_bol)
        ~rule ~severity:(Rules.severity_of rule) message
      :: !findings
  in
  let check_ident e =
    match e.pexp_desc with
    | Pexp_ident lid ->
        let path = ident_path lid.txt in
        let loc = e.pexp_loc in
        if List.mem path wall_clock_idents then
          add ~loc "wall-clock"
            (Printf.sprintf
               "%s reads the wall clock; use Sim.Scheduler.now (or annotate \
                a vetted measurement sink)"
               path)
        else if String.equal path "Random.self_init"
                || String.equal path "Random.State.make_self_init" then
          add ~loc "ambient-rng"
            (Printf.sprintf "%s seeds from ambient entropy; runs would no \
                             longer replay" path)
        else if
          starts_with ~prefix:"Random." path
          && not (starts_with ~prefix:"Random.State." path)
        then
          add ~loc "ambient-rng"
            (Printf.sprintf
               "global %s draws from shared ambient state; use the seeded \
                Sim.Rng carried by the component"
               path)
        else if List.mem path poly_compare_idents then
          add ~loc "poly-compare"
            (Printf.sprintf
               "polymorphic %s; use an explicit comparator (Float.compare, \
                Int.compare, String.compare, ...)"
               path)
        else if List.mem path hashtbl_order_idents then
          add ~loc "hashtbl-order"
            (Printf.sprintf
               "%s iterates in hash order, which is not part of the replay \
                contract; sort the keys first or keep an insertion-order \
                list"
               path)
    | _ -> ()
  in
  let check_comparison e =
    match e.pexp_desc with
    | Pexp_apply ({ pexp_desc = Pexp_ident { txt = Longident.Lident op; _ }; _ },
                  [ (_, a); (_, b) ])
      when List.mem op comparison_ops ->
        let loc = e.pexp_loc in
        if List.mem op equality_ops && (is_float_literal a || is_float_literal b)
        then
          add ~loc "poly-compare"
            (Printf.sprintf
               "float equality via polymorphic (%s); floats want explicit \
                comparison (Float.equal or an epsilon)"
               op)
        else begin
          match (field_name a, field_name b) with
          | Some fa, Some fb when String.equal fa fb ->
              add ~loc "poly-compare"
                (Printf.sprintf
                   "(%s) on record field %s of two values; spell out the \
                    comparator so the ordering is explicit"
                   op fa)
          | _ -> ()
        end
    | Pexp_apply ({ pexp_desc = Pexp_ident lid; _ }, args)
      when List.mem (ident_path lid.txt) minmax_idents
           && List.exists (fun (_, a) -> is_float_expr a) args ->
        add ~loc:e.pexp_loc "poly-compare"
          (Printf.sprintf
             "polymorphic %s on a float boxes both arguments; write the \
              typed clamp (if a >= b then a else b for max, <= for min), \
              not Float.max/min, which differ on NaN and signed zero"
             (ident_path lid.txt))
    | _ -> ()
  in
  let iterator =
    {
      Ast_iterator.default_iterator with
      expr =
        (fun self e ->
          check_ident e;
          check_comparison e;
          Ast_iterator.default_iterator.expr self e);
    }
  in
  iterator.structure iterator structure;
  List.rev !findings
