(* Determinism-linter tests: every rule firing on a fixture, every
   suppression honoured, the JSON report round-tripping, and — the
   point of the whole exercise — the repo's own lib/ tree coming back
   clean. *)

let fx sub = Filename.concat (Filename.concat "fixtures" "lint") sub

let run ?rules paths = Lint.Driver.run ?rules ~paths ()

let count rule findings =
  List.length (List.filter (fun (f : Lint.Finding.t) -> f.rule = rule) findings)

let errors findings =
  List.filter (fun (f : Lint.Finding.t) -> f.severity = Lint.Finding.Error) findings

let check_count findings ~rule n =
  Alcotest.(check int) (rule ^ " count") n (count rule findings)

(* --- one fixture per rule ------------------------------------------ *)

let test_wall_clock () =
  let fs = run [ fx "wall_clock" ] in
  check_count fs ~rule:"wall-clock" 2;
  check_count fs ~rule:"mli-required" 1;
  check_count fs ~rule:"ambient-rng" 0;
  let lines =
    List.filter_map
      (fun (f : Lint.Finding.t) ->
        if f.rule = "wall-clock" then Some f.line else None)
      fs
  in
  Alcotest.(check (list int)) "wall-clock lines" [ 2; 4 ] lines

let test_ambient_rng () =
  let fs = run [ fx "ambient_rng" ] in
  (* Random.self_init and Random.int fire; Random.State.int does not. *)
  check_count fs ~rule:"ambient-rng" 2;
  check_count fs ~rule:"mli-required" 1

let test_poly_compare () =
  let fs = run [ fx "poly_compare" ] in
  (* Three same-field comparisons on one line, plus [compare],
     [Hashtbl.hash] and a float-literal equality; [Float.compare] is
     fine. *)
  check_count fs ~rule:"poly-compare" 6;
  check_count fs ~rule:"mli-required" 1

let test_float_minmax () =
  (* Stdlib.max/min (bare or qualified) with a float literal or a
     float-arithmetic argument: four sites, one per line. *)
  let fs = run [ fx "float_minmax" ] in
  check_count fs ~rule:"poly-compare" 4;
  Alcotest.(check (list int)) "poly-compare lines" [ 2; 4; 6; 8 ]
    (List.filter_map
       (fun (f : Lint.Finding.t) ->
         if f.rule = "poly-compare" then Some f.line else None)
       fs);
  (* Typed clamps, variables-only max and integer max are clean. *)
  Alcotest.(check int) "clean fixture" 0
    (List.length (run [ fx "float_minmax_clean" ]))

let test_hashtbl_order () =
  let fs = run [ fx "hashtbl_order" ] in
  (* iter and fold fire; Hashtbl.length does not. *)
  check_count fs ~rule:"hashtbl-order" 2;
  check_count fs ~rule:"mli-required" 1

let test_mli_required () =
  let fs = run [ fx "mli_missing" ] in
  check_count fs ~rule:"mli-required" 1;
  Alcotest.(check int) "only that finding" 1 (List.length fs)

let test_parse_error () =
  let fs = run [ fx "parse_error" ] in
  check_count fs ~rule:"parse-error" 1;
  (* A file that does not parse still gets project-level checks. *)
  check_count fs ~rule:"mli-required" 1

let test_unused_export () =
  let fs = run [ fx (Filename.concat "unused" "lib") ] in
  (* Api.used is referenced from the sibling bin/ and Api.bench_only
     from the sibling perfbench/, the benchmark of record; Api.unused
     is referenced only from the sibling test/, which is not a caller. *)
  check_count fs ~rule:"unused-export" 1;
  (match List.find_opt (fun (f : Lint.Finding.t) -> f.rule = "unused-export") fs with
  | Some f ->
      let has_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the unused value" true
        (has_sub f.message "unused")
  | None -> Alcotest.fail "expected an unused-export finding");
  Alcotest.(check int) "warnings do not fail the build" 0
    (Lint.Driver.exit_code fs);
  Alcotest.(check int) "strict mode promotes warnings" 1
    (Lint.Driver.exit_code ~strict:true fs)

let test_unused_export_qualified () =
  (* Two libraries both define Receiver.total; bin/ names only beta's
     (Beta.Receiver.total), so alpha's is unused.  Beta.Wire is an
     include alias of Alpha.Wire, so Beta.Wire.encode counts for
     alpha's encode. *)
  let fs = run ~rules:[ "unused-export" ] [ fx (Filename.concat "qualified" "lib") ] in
  let unused = List.filter (fun (f : Lint.Finding.t) -> f.rule = "unused-export") fs in
  Alcotest.(check (list string)) "only alpha's Receiver.total"
    [ "receiver.mli" ]
    (List.map (fun (f : Lint.Finding.t) -> Filename.basename f.file) unused);
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "in alpha" "alpha"
        (Filename.basename (Filename.dirname f.file)))
    unused

let test_unused_export_prose () =
  (* bin/ names Api.quoted only in comments, a nested comment, a string
     and two quoted strings, none of which is a caller.  Api.live's one
     use follows a '"' char literal, which opens no string. *)
  let fs = run ~rules:[ "unused-export" ] [ fx (Filename.concat "prose" "lib") ] in
  Alcotest.(check (list string)) "only Api.quoted" [ "Api.quoted" ]
    (List.map
       (fun (f : Lint.Finding.t) -> List.hd (String.split_on_char ' ' f.message))
       fs)

let test_ckpt_coverage () =
  let fs = run [ fx "ckpt_coverage" ] in
  (* Only uncovered.ml fires: covered.ml exports the pair, waived.ml
     carries an allow-file annotation, immutable.ml has no mutable
     field. *)
  check_count fs ~rule:"ckpt-coverage" 1;
  match
    List.find_opt (fun (f : Lint.Finding.t) -> f.rule = "ckpt-coverage") fs
  with
  | None -> Alcotest.fail "expected a ckpt-coverage finding"
  | Some f ->
      Alcotest.(check string) "flags the uncovered module" "uncovered.ml"
        (Filename.basename f.file);
      (* Anchored at the mutable field, not line 1. *)
      Alcotest.(check int) "mutable-field line" 4 f.line;
      Alcotest.(check bool) "advisory severity" true
        (f.severity = Lint.Finding.Warning)

(* --- escape analysis (domain safety) ------------------------------- *)

let has_sub s sub =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  m = 0 || go 0

let test_shared_mutable_capture () =
  let fs = run [ fx (Filename.concat "escape" "shared_ref.ml") ] in
  check_count fs ~rule:"shared-mutable-capture" 1;
  match
    List.find_opt
      (fun (f : Lint.Finding.t) -> f.rule = "shared-mutable-capture")
      fs
  with
  | None -> Alcotest.fail "expected a shared-mutable-capture finding"
  | Some f ->
      Alcotest.(check int) "anchored at the ref binding" 5 f.line;
      Alcotest.(check bool) "error severity" true
        (f.severity = Lint.Finding.Error);
      (* The provenance chain walks all three hops from the spawn. *)
      Alcotest.(check bool) "provenance chain rendered" true
        (has_sub f.message
           "Shared_ref.start.<closure@11> -> Shared_ref.helper -> \
            Shared_ref.bump")

let test_atomic_version_is_clean () =
  let fs = run [ fx (Filename.concat "escape" "atomic_ok.ml") ] in
  check_count fs ~rule:"shared-mutable-capture" 0;
  check_count fs ~rule:"domain-unsafe-call" 0

let test_domain_unsafe_call () =
  let fs = run [ fx (Filename.concat "escape" "unsafe_call.ml") ] in
  check_count fs ~rule:"domain-unsafe-call" 1;
  match
    List.find_opt (fun (f : Lint.Finding.t) -> f.rule = "domain-unsafe-call") fs
  with
  | None -> Alcotest.fail "expected a domain-unsafe-call finding"
  | Some f ->
      Alcotest.(check bool) "names the ambient call" true
        (has_sub f.message "Printf.printf")

let test_escape_waiver_honoured () =
  let fs = run [ fx (Filename.concat "escape" "waived.ml") ] in
  check_count fs ~rule:"shared-mutable-capture" 0

let test_escape_graph_dump () =
  let dump =
    Lint.Driver.escape_graph
      ~paths:[ fx (Filename.concat "escape" "shared_ref.ml") ]
      ()
  in
  Alcotest.(check bool) "lists the synthetic spawn root" true
    (has_sub dump "<closure@11>");
  Alcotest.(check bool) "marks the reachable helper" true
    (has_sub dump "helper");
  Alcotest.(check bool) "has a summary header" true
    (has_sub dump "escape graph:")

(* --- hot-path allocation checks ------------------------------------ *)

let test_alloc_hot_fires () =
  let fs = run [ fx (Filename.concat "hot" "firing.ml") ] in
  check_count fs ~rule:"alloc-hot" 1;
  match List.find_opt (fun (f : Lint.Finding.t) -> f.rule = "alloc-hot") fs with
  | None -> Alcotest.fail "expected an alloc-hot finding"
  | Some f ->
      Alcotest.(check bool) "names the construct and the function" true
        (has_sub f.message "tuple" && has_sub f.message "pair")

let test_alloc_hot_waiver_honoured () =
  let fs = run [ fx (Filename.concat "hot" "waived.ml") ] in
  check_count fs ~rule:"alloc-hot" 0

let test_alloc_hot_clean () =
  let fs = run [ fx (Filename.concat "hot" "clean.ml") ] in
  (* Neither the bare arithmetic nor the invalid_arg error exit fires. *)
  check_count fs ~rule:"alloc-hot" 0;
  check_count fs ~rule:"hot-coverage" 0

let test_alloc_hot_follows_callees () =
  let fs = run [ fx (Filename.concat "hot" "callee.ml") ] in
  check_count fs ~rule:"alloc-hot" 1;
  check_count fs ~rule:"hot-coverage" 0;
  match List.find_opt (fun (f : Lint.Finding.t) -> f.rule = "alloc-hot") fs with
  | None -> Alcotest.fail "expected an alloc-hot finding"
  | Some f ->
      let has_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "named hot->callee" true
        (has_sub f.message "via_helper->pair");
      Alcotest.(check int) "points into the helper" 5 f.line

let test_hot_coverage_rejects_unknown_name () =
  let fs = run [ fx (Filename.concat "hot" "coverage_bad.ml") ] in
  check_count fs ~rule:"hot-coverage" 1;
  match
    List.find_opt (fun (f : Lint.Finding.t) -> f.rule = "hot-coverage") fs
  with
  | None -> Alcotest.fail "expected a hot-coverage finding"
  | Some f ->
      Alcotest.(check bool) "names the missing binding" true
        (has_sub f.message "no_such_function");
      Alcotest.(check bool) "error severity" true
        (f.severity = Lint.Finding.Error)

let test_hot_annotations_inventory () =
  let hots = Lint.Driver.For_testing.hot_annotations ~paths:[ fx "hot" ] () in
  let targets_of file =
    List.filter_map
      (fun (f, t) -> if Filename.basename f = file then Some t else None)
      hots
  in
  Alcotest.(check (list string)) "firing.ml declares pair" [ "pair" ]
    (targets_of "firing.ml");
  Alcotest.(check (list string)) "clean.ml declares both" [ "bump"; "checked" ]
    (List.sort compare (targets_of "clean.ml"))

(* --- suppression and annotation integrity -------------------------- *)

let test_suppressions_honoured () =
  let fs = run [ fx "suppressed"; fx "clean" ] |> errors in
  Alcotest.(check int) "bad-annotation errors" 3 (count "bad-annotation" fs);
  (* The malformed annotation suppresses nothing, so the wall-clock
     violation underneath it still fires. *)
  Alcotest.(check int) "wall-clock still fires" 1 (count "wall-clock" fs);
  (* Every error must come from bad_annot.ml: ok.ml is fully waived and
     clean/ is clean. *)
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check string) "error source" "bad_annot.ml"
        (Filename.basename f.file))
    fs

let test_clean_fixture () =
  Alcotest.(check int) "clean fixture has no findings" 0
    (List.length (run [ fx "clean" ]))

(* --- scoping and rule selection ------------------------------------ *)

let test_scope_lib_obs () =
  let fs = run [ fx (Filename.concat "scoped" "lib") ] in
  (* Under lib/obs the hashtbl-order rule applies but poly-compare is
     out of scope, so [List.sort compare] passes unflagged. *)
  check_count fs ~rule:"hashtbl-order" 1;
  check_count fs ~rule:"poly-compare" 0

let test_rules_filter () =
  let fs = run ~rules:[ "wall-clock" ] [ fx "wall_clock" ] in
  check_count fs ~rule:"wall-clock" 2;
  Alcotest.(check int) "other rules filtered out" 2 (List.length fs)

let test_unknown_rule_rejected () =
  match run ~rules:[ "no-such-rule" ] [ fx "clean" ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument msg ->
      let has_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) "names the bad rule" true
        (has_sub msg "no-such-rule")

let test_missing_path_rejected () =
  match run [ fx "does_not_exist" ] with
  | _ -> Alcotest.fail "expected Invalid_argument"
  | exception Invalid_argument _ -> ()

let test_scope_key () =
  let check_key path expected =
    Alcotest.(check (option string)) path expected (Lint.Driver.For_testing.scope_key path)
  in
  check_key "lib/sim/heap.ml" (Some "lib/sim");
  check_key "bin/rla_trace.ml" (Some "bin");
  check_key "bench/main.ml" (Some "bench");
  check_key "test/test_sim.ml" (Some "test");
  (* A lib component wins over a tree name, preserving fixture layouts. *)
  check_key "fixtures/lint/scoped/lib/obs/table.ml" (Some "lib/obs");
  (* Bare fixture paths have no scope: every rule applies. *)
  check_key "fixtures/lint/clean/pure.ml" None

let test_parse_interface () =
  let mli = fx (Filename.concat "ckpt_coverage" "covered.mli") in
  match Lint.Driver.For_testing.parse_interface mli with
  | Ok sg -> Alcotest.(check bool) "non-empty signature" true (sg <> [])
  | Error e -> Alcotest.fail ("fixture interface failed to parse: " ^ e)

(* --- report formats ------------------------------------------------ *)

let test_json_round_trip () =
  let fs = run [ fx "poly_compare"; fx "wall_clock" ] in
  Alcotest.(check bool) "fixture produced findings" true (fs <> []);
  let json = Lint.Driver.to_json fs in
  match Rla_json.Json.of_string (Rla_json.Json.to_string json) with
  | exception Rla_json.Json.Parse_error e ->
      Alcotest.fail ("json reparse failed: " ^ e)
  | reparsed -> (
      let open Rla_json.Json in
      match member "findings" reparsed with
      | Some (List items) ->
          Alcotest.(check int) "same cardinality" (List.length fs)
            (List.length items);
          List.iter2
            (fun (f : Lint.Finding.t) item ->
              let field name = member name item in
              Alcotest.(check bool)
                (Lint.Finding.to_string f)
                true
                (field "file" = Some (String f.file)
                && field "line" = Some (Int f.line)
                && field "col" = Some (Int f.col)
                && field "rule" = Some (String f.rule)
                && field "severity"
                   = Some
                       (String (Lint.Finding.severity_to_string f.severity))
                && field "message" = Some (String f.message)))
            fs items
      | _ -> Alcotest.fail "findings is not a list")

let test_text_rendering () =
  let fs = run [ fx "mli_missing" ] in
  let text = Lint.Driver.render_text fs in
  List.iter
    (fun (f : Lint.Finding.t) ->
      let line = Lint.Finding.to_string f in
      let has_sub s sub =
        let n = String.length s and m = String.length sub in
        let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
        go 0
      in
      Alcotest.(check bool) ("render contains " ^ line) true (has_sub text line))
    fs

let test_sarif_output () =
  let fs = run [ fx "wall_clock"; fx (Filename.concat "hot" "firing.ml") ] in
  Alcotest.(check bool) "fixtures produced findings" true (fs <> []);
  let sarif = Rla_json.Json.to_string (Lint.Driver.to_sarif fs) in
  Alcotest.(check bool) "declares SARIF 2.1.0" true
    (has_sub sarif "\"version\":\"2.1.0\"");
  Alcotest.(check bool) "carries the schema URI" true
    (has_sub sarif "sarif-2.1.0.json");
  (* The driver's rule table lists every registered rule... *)
  List.iter
    (fun (r : Lint.Rules.t) ->
      Alcotest.(check bool) ("rule table has " ^ r.Lint.Rules.name) true
        (has_sub sarif (Printf.sprintf "\"id\":%S" r.Lint.Rules.name)))
    Lint.Rules.all;
  (* ...and every finding becomes a located result. *)
  List.iter
    (fun (f : Lint.Finding.t) ->
      Alcotest.(check bool) ("result for " ^ f.rule) true
        (has_sub sarif (Printf.sprintf "\"ruleId\":%S" f.rule)))
    fs;
  Alcotest.(check bool) "results carry physical locations" true
    (has_sub sarif "physicalLocation" && has_sub sarif "startLine");
  (* SARIF must remain parseable JSON. *)
  match Rla_json.Json.of_string sarif with
  | _ -> ()
  | exception Rla_json.Json.Parse_error e ->
      Alcotest.fail ("SARIF output is not valid JSON: " ^ e)

(* --- the tree itself ----------------------------------------------- *)

let test_lib_is_clean () =
  (* dune copies the library sources into the build tree, so the
     linter can check the very sources this binary was built from.
     Skip (pass) when the copy is absent, e.g. under sandboxed runs. *)
  let lib = Filename.concat ".." "lib" in
  if Sys.file_exists lib && Sys.is_directory lib then
    match errors (run [ lib ]) with
    | [] -> ()
    | errs ->
        Alcotest.fail
          (Printf.sprintf "lib/ has %d determinism errors:\n%s"
             (List.length errs)
             (Lint.Driver.render_text errs))

(* The unused-export rule over the real tree: every value lib/ exports
   has a caller in lib/ or in a product tree beside it.  test/ is not
   searched.  The trees are dune deps of this test, so it never skips. *)
let product_trees = [ "lib"; "bin"; "bench"; "perfbench"; "examples" ]

let test_exports_have_callers () =
  List.iter
    (fun tree ->
      if not (Sys.file_exists (Filename.concat ".." tree)) then
        Alcotest.failf "../%s is missing: declare it as a dune dep" tree)
    product_trees;
  match
    List.filter
      (fun (f : Lint.Finding.t) -> f.rule = "unused-export")
      (run ~rules:[ "unused-export" ] [ Filename.concat ".." "lib" ])
  with
  | [] -> ()
  | fs ->
      Alcotest.failf "%d exports have no caller outside test/:\n%s"
        (List.length fs) (Lint.Driver.render_text fs)

(* Values that tests reach through a [For_testing] submodule, per
   library.  Each is a seam a test needs and no product uses; a change
   to this table is a change to the public surface and is made on
   purpose. *)
let for_testing_inventory =
  [
    ("analysis", 16);
    ("baselines", 6);
    ("core", 9);
    ("lint", 3);
    ("net", 3);
    ("sim", 5);
    ("stats", 2);
    ("tcp", 6);
  ]

let for_testing_values signature =
  List.fold_left
    (fun n item ->
      match item.Parsetree.psig_desc with
      | Parsetree.Psig_module
          {
            pmd_name = { txt = Some "For_testing"; _ };
            pmd_type = { pmty_desc = Pmty_signature sg; _ };
            _;
          } ->
          n
          + List.length
              (List.filter
                 (fun i ->
                   match i.Parsetree.psig_desc with
                   | Parsetree.Psig_value _ -> true
                   | _ -> false)
                 sg)
      | _ -> n)
    0 signature

let test_for_testing_inventory () =
  let lib = Filename.concat ".." "lib" in
  if not (Sys.file_exists lib) then
    Alcotest.fail "../lib is missing: declare it as a dune dep";
  let counts =
    Sys.readdir lib |> Array.to_list |> List.sort String.compare
    |> List.filter_map (fun name ->
           let dir = Filename.concat lib name in
           if not (Sys.is_directory dir) then None
           else
             let n =
               Sys.readdir dir |> Array.to_list
               |> List.filter (fun f -> Filename.check_suffix f ".mli")
               |> List.fold_left
                    (fun n f ->
                      match
                        Lint.Driver.For_testing.parse_interface
                          (Filename.concat dir f)
                      with
                      | Ok sg -> n + for_testing_values sg
                      | Error e -> Alcotest.failf "%s: %s" f e)
                    0
             in
             if n = 0 then None else Some (name, n))
  in
  Alcotest.(check (list (pair string int)))
    "For_testing values per library" for_testing_inventory counts;
  Alcotest.(check int) "total" 50
    (List.fold_left (fun n (_, k) -> n + k) 0 counts)

let existing_trees subs =
  List.filter
    (fun p -> Sys.file_exists p && Sys.is_directory p)
    (List.map (Filename.concat "..") subs)

let test_parallel_engine_is_domain_safe () =
  (* The acceptance bar of the escape pass: the parallel engine, the
     runner pool, and everything they transitively reach must carry no
     domain-safety or hot-path findings.  Escape analysis is
     cross-module, so lint all of lib plus the executables at once. *)
  match existing_trees [ "lib"; "bin"; "bench" ] with
  | [] -> ()
  | trees -> (
      match
        run
          ~rules:
            [
              "shared-mutable-capture";
              "domain-unsafe-call";
              "alloc-hot";
              "hot-coverage";
            ]
          trees
      with
      | [] -> ()
      | findings ->
          Alcotest.fail
            (Printf.sprintf "domain-safety/hot-path findings:\n%s"
               (Lint.Driver.render_text findings)))

let test_hot_paths_are_annotated () =
  (* The performance contract: the scheduler/packet hot path carries
     at least five vetted hot annotations, the scheduler fire loop is
     one of them, so are both ends of the event heap (the insert that
     sifts up and the root removal that sifts down), and so are both
     ends of a cross-shard hop (the portal's outbox push and the shared
     import action), and so are the receivers' reassembly probe, insert
     and SACK block builder, and both export printing kernels. *)
  match existing_trees [ "lib" ] with
  | [] -> ()
  | trees ->
      let hots = Lint.Driver.For_testing.hot_annotations ~paths:trees () in
      let declared file target =
        List.exists
          (fun (f, t) -> Filename.basename f = file && t = target)
          hots
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d hot annotations >= 5" (List.length hots))
        true
        (List.length hots >= 5);
      Alcotest.(check bool) "scheduler step is declared hot" true
        (declared "scheduler.ml" "step");
      Alcotest.(check bool) "Heap.add is declared hot" true
        (declared "heap.ml" "add");
      Alcotest.(check bool) "Heap.pop_top is declared hot" true
        (declared "heap.ml" "pop_top");
      Alcotest.(check bool) "Mailbox.push is declared hot" true
        (declared "mailbox.ml" "push");
      Alcotest.(check bool) "Mailbox.import is declared hot" true
        (declared "mailbox.ml" "import");
      List.iter
        (fun target ->
          Alcotest.(check bool)
            (Printf.sprintf "Reassembly.%s is declared hot" target)
            true
            (declared "reassembly.ml" target))
        [ "mem"; "add"; "build" ];
      List.iter
        (fun target ->
          Alcotest.(check bool)
            (Printf.sprintf "Json.%s is declared hot" target)
            true
            (declared "json.ml" target))
        [ "float_kernel"; "fixed_kernel" ]

let test_adversary_is_domain_safe () =
  (* The hostile-workload subsystem must clear the same bar as the
     parallel engine: adversaries run inside pooled jobs, so nothing in
     lib/adversary may capture shared mutable state, call
     domain-unsafe primitives, or allocate in a declared hot path. *)
  match existing_trees [ Filename.concat "lib" "adversary" ] with
  | [] -> ()
  | trees -> (
      match
        run
          ~rules:
            [
              "shared-mutable-capture";
              "domain-unsafe-call";
              "alloc-hot";
              "hot-coverage";
              "wall-clock";
              "ambient-rng";
              "mli-required";
            ]
          trees
      with
      | [] -> ()
      | findings ->
          Alcotest.fail
            (Printf.sprintf "lib/adversary findings:\n%s"
               (Lint.Driver.render_text findings)))

let test_ack_validation_declared_hot () =
  (* PR 10's fast path: the per-ack validation gate in the TCP sender
     must carry a vetted hot annotation. *)
  match existing_trees [ Filename.concat "lib" "tcp" ] with
  | [] -> ()
  | trees ->
      let hots = Lint.Driver.For_testing.hot_annotations ~paths:trees () in
      Alcotest.(check bool) "ack_in_window is declared hot" true
        (List.exists
           (fun (f, t) ->
             Filename.basename f = "sender.ml" && t = "ack_in_window")
           hots)

let test_rla_ack_dispatch_declared_hot () =
  (* The RLA sender resolves every ack's receiver through one address
     index; its lookup must stay under the alloc-hot contract. *)
  match existing_trees [ Filename.concat "lib" "core" ] with
  | [] -> ()
  | trees ->
      let hots = Lint.Driver.For_testing.hot_annotations ~paths:trees () in
      Alcotest.(check bool) "active_slot is declared hot" true
        (List.exists
           (fun (f, t) -> Filename.basename f = "sender.ml" && t = "active_slot")
           hots)

let test_event_path_declared_hot () =
  (* The per-packet dequeue and the per-arrival node dispatch carry the
     alloc-hot contract, so an option or closure creeping back into
     either fails the self-check. *)
  match existing_trees [ Filename.concat "lib" "net" ] with
  | [] -> ()
  | trees ->
      let hots = Lint.Driver.For_testing.hot_annotations ~paths:trees () in
      let declared file target =
        List.exists
          (fun (f, t) -> Filename.basename f = file && t = target)
          hots
      in
      Alcotest.(check bool) "Ring.take is declared hot" true
        (declared "ring.ml" "take");
      Alcotest.(check bool) "Node.receive is declared hot" true
        (declared "node.ml" "receive")

let () =
  Alcotest.run "lint"
    [
      ( "rules",
        [
          Alcotest.test_case "wall-clock" `Quick test_wall_clock;
          Alcotest.test_case "ambient-rng" `Quick test_ambient_rng;
          Alcotest.test_case "poly-compare" `Quick test_poly_compare;
          Alcotest.test_case "poly-compare float max/min" `Quick
            test_float_minmax;
          Alcotest.test_case "hashtbl-order" `Quick test_hashtbl_order;
          Alcotest.test_case "mli-required" `Quick test_mli_required;
          Alcotest.test_case "parse-error" `Quick test_parse_error;
          Alcotest.test_case "unused-export" `Quick test_unused_export;
          Alcotest.test_case "unused-export qualified by another library"
            `Quick test_unused_export_qualified;
          Alcotest.test_case "unused-export ignores comments and literals"
            `Quick test_unused_export_prose;
          Alcotest.test_case "ckpt-coverage" `Quick test_ckpt_coverage;
        ] );
      ( "escape",
        [
          Alcotest.test_case "shared-mutable-capture" `Quick
            test_shared_mutable_capture;
          Alcotest.test_case "atomic version clean" `Quick
            test_atomic_version_is_clean;
          Alcotest.test_case "domain-unsafe-call" `Quick
            test_domain_unsafe_call;
          Alcotest.test_case "waiver honoured" `Quick
            test_escape_waiver_honoured;
          Alcotest.test_case "graph dump" `Quick test_escape_graph_dump;
        ] );
      ( "hot",
        [
          Alcotest.test_case "alloc-hot fires" `Quick test_alloc_hot_fires;
          Alcotest.test_case "alloc-hot waived" `Quick
            test_alloc_hot_waiver_honoured;
          Alcotest.test_case "clean hot function" `Quick test_alloc_hot_clean;
          Alcotest.test_case "alloc-hot follows callees" `Quick
            test_alloc_hot_follows_callees;
          Alcotest.test_case "hot-coverage unknown name" `Quick
            test_hot_coverage_rejects_unknown_name;
          Alcotest.test_case "annotation inventory" `Quick
            test_hot_annotations_inventory;
        ] );
      ( "suppression",
        [
          Alcotest.test_case "annotations honoured" `Quick
            test_suppressions_honoured;
          Alcotest.test_case "clean fixture" `Quick test_clean_fixture;
        ] );
      ( "selection",
        [
          Alcotest.test_case "lib/obs scope" `Quick test_scope_lib_obs;
          Alcotest.test_case "--rules filter" `Quick test_rules_filter;
          Alcotest.test_case "unknown rule" `Quick test_unknown_rule_rejected;
          Alcotest.test_case "missing path" `Quick test_missing_path_rejected;
          Alcotest.test_case "scope keys" `Quick test_scope_key;
          Alcotest.test_case "parse_interface" `Quick test_parse_interface;
        ] );
      ( "report",
        [
          Alcotest.test_case "json round-trip" `Quick test_json_round_trip;
          Alcotest.test_case "text rendering" `Quick test_text_rendering;
          Alcotest.test_case "sarif output" `Quick test_sarif_output;
        ] );
      ( "self-check",
        [
          Alcotest.test_case "lib/ clean" `Quick test_lib_is_clean;
          Alcotest.test_case "every export has a product caller" `Quick
            test_exports_have_callers;
          Alcotest.test_case "For_testing inventory" `Quick
            test_for_testing_inventory;
          Alcotest.test_case "parallel engine domain-safe" `Quick
            test_parallel_engine_is_domain_safe;
          Alcotest.test_case "hot paths annotated" `Quick
            test_hot_paths_are_annotated;
          Alcotest.test_case "adversary subsystem domain-safe" `Quick
            test_adversary_is_domain_safe;
          Alcotest.test_case "ack validation declared hot" `Quick
            test_ack_validation_declared_hot;
          Alcotest.test_case "RLA ack dispatch declared hot" `Quick
            test_rla_ack_dispatch_declared_hot;
          Alcotest.test_case "event path declared hot" `Quick
            test_event_path_declared_hot;
        ] );
    ]
