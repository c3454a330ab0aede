(* Tests for the multicore sweep engine: job/pool determinism,
   submission-order results, metrics, and the JSON emitter. *)

(* A small self-contained simulation: one TCP flow over a duplex link,
   3 simulated seconds; returns enough state to detect any divergence
   between runs. *)
let tcp_job ~seed =
  Runner.Job.create ~label:(Printf.sprintf "tcp/seed%d" seed) (fun () ->
      let net = Net.Network.create ~seed () in
      let a = Net.Node.id (Net.Network.add_node net) in
      let b = Net.Node.id (Net.Network.add_node net) in
      let ab, _ =
        Net.Network.duplex net a b
          {
            Net.Link.bandwidth_bps = 800_000.0;
            prop_delay = 0.01;
            queue = Net.Queue_disc.Droptail;
            capacity = 20;
            phase_jitter = true;
          }
      in
      Net.Network.install_routes net;
      let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
      Net.Network.run_until net 3.0;
      let snap = Tcp.Sender.snapshot tcp in
      let stats = Net.Link.stats ab in
      ( net,
        ( snap.Tcp.Sender.send_rate,
          snap.Tcp.Sender.cwnd_avg,
          stats.Net.Link.delivered,
          stats.Net.Link.dropped ) ))

let seeds = [ 1; 2; 3; 4; 5; 6; 7; 8 ]

let test_pool_deterministic_across_jobs () =
  let run jobs =
    Runner.Pool.values
      (Runner.Pool.run ~jobs (List.map (fun seed -> tcp_job ~seed) seeds))
  in
  let sequential = run 1 in
  Alcotest.(check bool) "jobs=1 equals jobs=4" true (sequential = run 4);
  Alcotest.(check bool) "jobs=1 equals jobs=8" true (sequential = run 8);
  (* Different seeds must actually differ, or the comparison is vacuous. *)
  match sequential with
  | first :: rest ->
      Alcotest.(check bool) "seeds diverge" true
        (List.exists (fun r -> r <> first) rest)
  | [] -> Alcotest.fail "no results"

let test_pool_submission_order () =
  let jobs_list =
    List.init 20 (fun i ->
        Runner.Job.pure ~label:(Printf.sprintf "job%d" i) (fun () -> i))
  in
  let outcomes = Runner.Pool.run ~jobs:4 jobs_list in
  List.iteri
    (fun i (o : int Runner.Pool.outcome) ->
      Alcotest.(check int) "value in submission order" i o.Runner.Pool.value;
      Alcotest.(check string) "label preserved"
        (Printf.sprintf "job%d" i)
        o.Runner.Pool.label)
    outcomes

let test_pool_metrics () =
  match Runner.Pool.run ~jobs:1 [ tcp_job ~seed:1 ] with
  | [ o ] ->
      let m = o.Runner.Pool.metrics in
      Alcotest.(check bool) "events fired" true (m.Runner.Metrics.events_fired > 100);
      Alcotest.(check bool) "wall clock nonnegative" true
        (m.Runner.Metrics.wall_s >= 0.0);
      Alcotest.(check bool) "allocation tracked" true
        (m.Runner.Metrics.allocated_mb > 0.0)
  | _ -> Alcotest.fail "expected one outcome"

let test_pool_pure_job_metrics () =
  match Runner.Pool.run ~jobs:2 [ Runner.Job.pure ~label:"p" (fun () -> 42) ] with
  | [ o ] ->
      Alcotest.(check int) "value" 42 o.Runner.Pool.value;
      Alcotest.(check int) "no network, no events" 0
        o.Runner.Pool.metrics.Runner.Metrics.events_fired
  | _ -> Alcotest.fail "expected one outcome"

let test_pool_failure_reported () =
  let jobs_list =
    [
      Runner.Job.pure ~label:"ok" (fun () -> 1);
      Runner.Job.pure ~label:"boom" (fun () -> failwith "expected");
    ]
  in
  match Runner.Pool.run ~jobs:2 jobs_list with
  | _ -> Alcotest.fail "must raise"
  | exception Runner.Pool.Job_failed (label, Failure msg) ->
      Alcotest.(check string) "failing job label" "boom" label;
      Alcotest.(check string) "original exception" "expected" msg
  | exception _ -> Alcotest.fail "wrong exception"

let test_pool_empty_and_clamped () =
  Alcotest.(check int) "empty job list" 0
    (List.length (Runner.Pool.run ~jobs:4 ([] : unit Runner.Job.t list)));
  (* jobs < 1 is clamped to sequential execution. *)
  match Runner.Pool.run ~jobs:0 [ Runner.Job.pure ~label:"x" (fun () -> 7) ] with
  | [ o ] -> Alcotest.(check int) "clamped to 1" 7 o.Runner.Pool.value
  | _ -> Alcotest.fail "expected one outcome"

let test_sharing_sweep_deterministic () =
  (* End-to-end: the experiment-level sweep is bit-identical for any
     jobs count (short run to keep the suite fast). *)
  let run jobs =
    List.map
      (fun (r : Experiments.Sharing.result) ->
        ( r.Experiments.Sharing.ratio,
          r.Experiments.Sharing.rla.Rla.Sender.send_rate,
          r.Experiments.Sharing.wtcp.Tcp.Sender.send_rate,
          r.Experiments.Sharing.essentially_fair ))
      (Runner.Pool.values
         (Experiments.Sharing.sweep ~gateway:Experiments.Scenario.Droptail
            ~case_indices:[ 1 ] ~duration:12.0 ~warmup:4.0 ~seeds:[ 1; 2 ]
            ~jobs ()))
  in
  Alcotest.(check bool) "sweep jobs=1 equals jobs=4" true (run 1 = run 4)

let test_json_emitter () =
  let doc =
    Runner.Json.Obj
      [
        ("name", Runner.Json.String "x\"y");
        ("n", Runner.Json.Int 3);
        ("f", Runner.Json.Float 0.25);
        ("whole", Runner.Json.Float 54.0);
        ("nan", Runner.Json.Float Float.nan);
        ("ok", Runner.Json.Bool true);
        ("xs", Runner.Json.List [ Runner.Json.Int 1; Runner.Json.Null ]);
      ]
  in
  Alcotest.(check string) "rendering"
    "{\"name\":\"x\\\"y\",\"n\":3,\"f\":0.25,\"whole\":54.0,\"nan\":null,\"ok\":true,\"xs\":[1,null]}"
    (Runner.Json.to_string doc)

let test_json_float_roundtrip () =
  List.iter
    (fun f ->
      match Runner.Json.to_string (Runner.Json.Float f) with
      | s ->
          Alcotest.(check (float 0.0))
            (Printf.sprintf "roundtrip %h" f)
            f (float_of_string s))
    [ 0.1; 1.0 /. 3.0; 2.492776886035313; 1e-9; 123456.789; 54.0 ]

(* json.mli's definition, verbatim: null for non-finite floats,
   integral values below 1e15 as %.1f, otherwise the first of %.1g ..
   %.17g that reads back.  Every committed document was written with
   it; the emitter must match it byte for byte. *)
let reference_float_repr f =
  if not (Float.is_finite f) then "null"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else
    let rec go p =
      if p > 17 then Printf.sprintf "%.17g" f
      else
        let s = Printf.sprintf "%.*g" p f in
        if float_of_string s = f then s else go (p + 1)
    in
    go 1

let float_json f = Runner.Json.to_string (Runner.Json.Float f)

let fixed_csv decimals f =
  let buf = Buffer.create 32 in
  Runner.Json.add_fixed buf decimals f;
  Buffer.contents buf

(* Fifteen classes: random bit patterns, subnormals, log-uniform over
   [1e-10, 1e15) and, either sign, over the normals below 1e-10 (random
   significand, binary exponent uniform in [-1022, -35]), decimals of 1
   to 17 digits k·10^j (where the short forms win) and their two
   neighbours, 10^U(-12,18), neighbours of powers of two (where the
   rounding interval is lopsided), negatives of the [1e-10, 1e15)
   class, and the values an exported trace holds: simulated times as
   running sums of small increments (random ones, and a fixed step
   added k times, as a sampling clock does), integral values up to
   [1e15] with their edges ([-0.0], [±(1e15 - 1)], [1e15]), and the two
   neighbours of each integral value. *)
let gen_float =
  let open QCheck.Gen in
  let short_decimal =
    map3
      (fun digits m e ->
        let m = m mod int_of_float (10. ** float_of_int digits) in
        float_of_string (Printf.sprintf "%de%d" m e))
      (int_range 1 17) (int_bound max_int) (int_range (-30) 20)
  in
  let subnormal =
    map2
      (fun m neg ->
        let f = Int64.float_of_bits (Int64.logand m 0xF_FFFF_FFFF_FFFFL) in
        if neg then -.f else f)
      int64 bool
  in
  let in_domain =
    map2
      (fun frac e -> Float.ldexp (1.0 +. frac) e)
      (float_bound_exclusive 1.0) (int_range (-34) 49)
  in
  let tiny =
    map3
      (fun frac e neg ->
        let f = Float.ldexp (1.0 +. frac) e in
        if neg then -.f else f)
      (float_bound_exclusive 1.0) (int_range (-1022) (-35)) bool
  in
  let near_power_of_two =
    map2
      (fun k d ->
        Int64.float_of_bits
          (Int64.add (Int64.bits_of_float (Float.ldexp 1.0 k)) (Int64.of_int d)))
      (int_range (-1074) 1023) (int_range (-2) 2)
  in
  let running_sum =
    map
      (List.fold_left ( +. ) 0.0)
      (list_size (int_range 1 400) (float_range 0.0 0.05))
  in
  let clock =
    map2
      (fun step k ->
        let t = ref 0.0 in
        for _ = 1 to k do
          t := !t +. step
        done;
        !t)
      (oneofl [ 0.1; 0.01; 0.001; 0.05; 0.2; 1.0 /. 3.0 ])
      (int_range 1 5_000)
  in
  let integral =
    oneof
      [
        map float_of_int (int_range (-1_000_000) 1_000_000);
        map float_of_int
          (int_range (-999_999_999_999_999) 999_999_999_999_999);
        oneofl
          [
            0.0; -0.0; 999_999_999_999_999.0; -999_999_999_999_999.0; 1e15;
            -1e15;
          ];
      ]
  in
  oneof
    [
      map Int64.float_of_bits int64;
      subnormal;
      in_domain;
      tiny;
      short_decimal;
      map Float.succ short_decimal;
      map Float.pred short_decimal;
      map (fun x -> 10. ** x) (float_range (-12.) 18.);
      near_power_of_two;
      map Float.neg in_domain;
      running_sum;
      clock;
      integral;
      map Float.succ integral;
      map Float.pred integral;
    ]

let prop_float_matches_reference =
  QCheck.Test.make ~name:"float emitter matches the 17-probe reference"
    ~count:100_000
    (QCheck.make ~print:(Printf.sprintf "%h") gen_float)
    (fun f -> String.equal (float_json f) (reference_float_repr f))

(* A document whose float arrays repeat one another renders as it does
   with every array rendered on its own: bit-equal copies (and the same
   array twice) are copied from the first rendering, while arrays that
   differ only in the sign of a zero or in a NaN payload are not taken
   for copies. *)
let prop_repeated_arrays =
  let open QCheck.Gen in
  let other_nan = Int64.float_of_bits 0x7FF0_0000_0000_0001L in
  let variant a = function
    | 0 -> a
    | 1 -> Array.copy a
    | 2 -> Array.map (fun f -> if f = 0.0 then -.f else f) a
    | _ -> Array.map (fun f -> if Float.is_nan f then other_nan else f) a
  in
  let base =
    array_size (int_range 0 12)
      (oneof [ gen_float; oneofl [ 0.0; -0.0; Float.nan; other_nan; 1.5 ] ])
  in
  let doc =
    list_size (int_range 1 4) base >>= fun bases ->
    let bases = Array.of_list bases in
    list_size (int_range 1 10)
      (map2
         (fun i v -> variant bases.(i mod Array.length bases) v)
         (int_bound 100) (int_bound 3))
  in
  QCheck.Test.make ~name:"repeated arrays render as if rendered apart"
    ~count:2_000
    (QCheck.make
       ~print:(fun arrays ->
         String.concat " | "
           (List.map
              (fun a ->
                String.concat ","
                  (Array.to_list (Array.map (Printf.sprintf "%h") a)))
              arrays))
       doc)
    (fun arrays ->
      let apart =
        "["
        ^ String.concat ","
            (List.map
               (fun a -> Runner.Json.to_string (Runner.Json.Floats a))
               arrays)
        ^ "]"
      and as_list =
        Runner.Json.to_string
          (Runner.Json.List
             (List.map
                (fun a ->
                  Runner.Json.List
                    (Array.to_list (Array.map (fun f -> Runner.Json.Float f) a)))
                arrays))
      in
      let together =
        Runner.Json.to_string
          (Runner.Json.List (List.map (fun a -> Runner.Json.Floats a) arrays))
      in
      String.equal together apart && String.equal together as_list)

(* The trace CSV's "%.6f" (times, cwnd) and "%.0f" (bytes) columns. *)
let prop_fixed_matches_printf =
  let open QCheck.Gen in
  let value =
    oneof
      [
        float_range 0.0 1000.0;
        map (fun x -> -.x) (float_range 0.0 1.0);
        map (fun k -> float_of_int k /. 2e6) (int_bound 10_000_000);
        map (fun k -> float_of_int k +. 0.5) (int_bound 1_000_000);
        map Float.round (float_range 0.0 1e12);
        map Int64.float_of_bits int64;
      ]
  in
  QCheck.Test.make ~name:"fixed emitter matches Printf %.6f and %.0f"
    ~count:20_000
    (QCheck.make ~print:(Printf.sprintf "%h") value)
    (fun f ->
      String.equal (fixed_csv 6 f) (Printf.sprintf "%.6f" f)
      && String.equal (fixed_csv 0 f) (Printf.sprintf "%.0f" f))

let test_float_edge_cases () =
  let two53 = Float.ldexp 1.0 53 in
  (* Exact ties at the 16th to 18th digit, so rounding to 15 to 17
     digits is a tie: an odd multiple of 1/32 has five decimals, the
     last a 5, after an integer part of 11 to 13 digits. *)
  let ties =
    List.concat_map
      (fun base ->
        List.init 16 (fun j -> base +. (float_of_int ((2 * j) + 1) /. 32.0)))
      [ 12345678901.0; 99999999999.0; 123456789012.0; 1234567890123.0 ]
  in
  (* 9.99...e{n}: rounding to 15 or 16 digits carries into a new
     decimal exponent. *)
  let carries =
    List.concat_map
      (fun e ->
        List.concat_map
          (fun nines ->
            let f =
              float_of_string
                (Printf.sprintf "9.%se%d" (String.make nines '9') e)
            in
            [ f; Float.pred f; Float.succ f ])
          [ 14; 15; 16 ])
      (List.init 28 (fun i -> i - 13))
  in
  let powers =
    List.concat_map
      (fun k ->
        let p = Float.ldexp 1.0 k in
        [ p; Float.succ p; Float.pred p ])
      (List.init 121 (fun i -> i - 60))
  in
  let edges =
    [
      0.0; -0.0; 5e-324; -5e-324; Float.min_float; Float.pred Float.min_float;
      Float.succ Float.min_float; -.Float.min_float;
      Float.max_float; -.Float.max_float; 1e15; Float.pred 1e15;
      Float.succ 1e15; -1e15; 1e-10; Float.pred 1e-10; Float.succ 1e-10;
      two53; Float.succ two53; two53 +. 1.0; 1e-5; Float.pred 1e-5;
      Float.succ 1e-5; 1e-4; Float.pred 1e-4; Float.succ 1e-4; 0.1;
      1.0 /. 3.0; 0.30000000000000004; 123456789012345.6; Float.nan;
      Float.infinity; Float.neg_infinity;
    ]
    @ ties @ carries @ powers
  in
  List.iter
    (fun f ->
      Alcotest.(check string) (Printf.sprintf "%h" f) (reference_float_repr f)
        (float_json f);
      List.iter
        (fun d ->
          Alcotest.(check string)
            (Printf.sprintf "%%.%df %h" d f)
            (Printf.sprintf "%.*f" d f) (fixed_csv d f))
        [ 0; 6 ])
    edges;
  for k = -1074 to 1023 do
    let f = Float.ldexp 1.0 k in
    Alcotest.(check string) (Printf.sprintf "%h" f) (reference_float_repr f)
      (float_json f)
  done;
  List.iter
    (fun (f, s) -> Alcotest.(check string) s s (float_json f))
    [
      (0.1, "0.1"); (-0.0, "-0.0"); (5e-324, "5e-324");
      (1e15, "1e+15"); (0.30000000000000004, "0.30000000000000004");
      (1e-5, "1e-05"); (1e-4, "0.0001");
      (* The widest rendering (24 bytes, the size of the scratch), and
         both sides of the switch to a three-digit exponent. *)
      (-.Float.succ 1e-300, "-1.0000000000000002e-300");
      (-.Float.succ 1e-100, "-1.0000000000000001e-100");
      (Float.succ 1e-99, "1.0000000000000002e-99");
    ]

(* The decimal exponent comes from the binary one and one comparison
   with the double nearest a power of ten.  At both ends of every
   binary exponent (the extreme non-power-of-two significands), and at
   every 10^j from 1e-308 to 1e308 and its two neighbours, the
   rendering, exponent included, matches the oracle. *)
let test_float_exponent_boundaries () =
  let check f =
    Alcotest.(check string) (Printf.sprintf "%h" f) (reference_float_repr f)
      (float_json f)
  in
  for biased = 1 to 2046 do
    let p = Float.ldexp 1.0 (biased - 1023) in
    check (Float.succ p);
    check (Float.pred (2.0 *. p))
  done;
  for j = -308 to 308 do
    let t = float_of_string (Printf.sprintf "1e%d" j) in
    check t;
    check (Float.pred t);
    check (Float.succ t)
  done

(* Every committed BENCH document was written by the reference
   formatter; reading one and writing it again must give it back byte
   for byte. *)
let test_bench_corpus_round_trip () =
  let root = Filename.parent_dir_name in
  let files =
    Sys.readdir root |> Array.to_list
    |> List.filter (fun f ->
           String.starts_with ~prefix:"BENCH_" f
           && (Filename.check_suffix f ".json"
              || Filename.check_suffix f "_history.jsonl"))
    |> List.sort compare
  in
  let documents =
    List.concat_map
      (fun f ->
        In_channel.with_open_bin (Filename.concat root f) In_channel.input_all
        |> String.split_on_char '\n'
        |> List.filter (fun l -> l <> "")
        |> List.map (fun l -> (f, l)))
      files
  in
  Alcotest.(check bool) "corpus found" true (documents <> []);
  List.iter
    (fun (f, s) ->
      Alcotest.(check bool) f true
        (String.equal (Runner.Json.to_string (Runner.Json.of_string s)) s))
    documents

let test_json_parse_roundtrip () =
  (* The bench-trend gate reads perf documents back with [of_string];
     emit → parse must be the identity on everything the emitter
     produces (minus [Verbatim] and non-finite floats). *)
  let doc =
    Runner.Json.Obj
      [
        ("name", Runner.Json.String "x\"y\\z\n");
        ("n", Runner.Json.Int (-3));
        ("f", Runner.Json.Float 0.25);
        ("whole", Runner.Json.Float 54.0);
        ("ok", Runner.Json.Bool true);
        ("no", Runner.Json.Bool false);
        ("nil", Runner.Json.Null);
        ( "xs",
          Runner.Json.List
            [
              Runner.Json.Int 1;
              Runner.Json.Obj [ ("k", Runner.Json.String "v") ];
            ] );
      ]
  in
  Alcotest.(check bool) "emit/parse identity" true
    (Runner.Json.of_string (Runner.Json.to_string doc) = doc)

let test_json_parse_accessors () =
  let j = Runner.Json.of_string {| {"a": 1, "b": 2.5, "c": "s", "d": 1e2} |} in
  Alcotest.(check (option int)) "int member" (Some 1)
    (Option.bind (Runner.Json.member "a" j) Runner.Json.to_int_opt);
  Alcotest.(check (option (float 0.0))) "float member" (Some 2.5)
    (Option.bind (Runner.Json.member "b" j) Runner.Json.to_float_opt);
  Alcotest.(check (option (float 0.0))) "int as float" (Some 1.0)
    (Option.bind (Runner.Json.member "a" j) Runner.Json.to_float_opt);
  Alcotest.(check (option string)) "string member" (Some "s")
    (Option.bind (Runner.Json.member "c" j) Runner.Json.to_string_opt);
  Alcotest.(check (option (float 0.0))) "exponent is float" (Some 100.0)
    (Option.bind (Runner.Json.member "d" j) Runner.Json.to_float_opt);
  Alcotest.(check (option int)) "missing member" None
    (Option.bind (Runner.Json.member "zz" j) Runner.Json.to_int_opt)

let test_json_parse_errors () =
  let rejects s =
    try
      ignore (Runner.Json.of_string s);
      false
    with Runner.Json.Parse_error _ -> true
  in
  Alcotest.(check bool) "trailing garbage" true (rejects "{} x");
  Alcotest.(check bool) "unterminated string" true (rejects "\"abc");
  Alcotest.(check bool) "bare word" true (rejects "flase");
  Alcotest.(check bool) "missing colon" true (rejects "{\"a\" 1}");
  Alcotest.(check bool) "empty input" true (rejects "")

let () =
  Alcotest.run "runner"
    [
      ( "pool",
        [
          Alcotest.test_case "deterministic across jobs" `Quick
            test_pool_deterministic_across_jobs;
          Alcotest.test_case "submission order" `Quick test_pool_submission_order;
          Alcotest.test_case "metrics" `Quick test_pool_metrics;
          Alcotest.test_case "pure job metrics" `Quick test_pool_pure_job_metrics;
          Alcotest.test_case "failure reported" `Quick test_pool_failure_reported;
          Alcotest.test_case "empty and clamped" `Quick test_pool_empty_and_clamped;
        ] );
      ( "sweep",
        [
          Alcotest.test_case "sharing sweep deterministic" `Slow
            test_sharing_sweep_deterministic;
        ] );
      ( "json",
        [
          Alcotest.test_case "emitter" `Quick test_json_emitter;
          Alcotest.test_case "float roundtrip" `Quick test_json_float_roundtrip;
          QCheck_alcotest.to_alcotest prop_float_matches_reference;
          QCheck_alcotest.to_alcotest prop_repeated_arrays;
          QCheck_alcotest.to_alcotest prop_fixed_matches_printf;
          Alcotest.test_case "float edge cases" `Quick test_float_edge_cases;
          Alcotest.test_case "float exponent boundaries" `Quick
            test_float_exponent_boundaries;
          Alcotest.test_case "bench corpus round-trip" `Quick
            test_bench_corpus_round_trip;
          Alcotest.test_case "parse roundtrip" `Quick test_json_parse_roundtrip;
          Alcotest.test_case "parse accessors" `Quick test_json_parse_accessors;
          Alcotest.test_case "parse errors" `Quick test_json_parse_errors;
        ] );
    ]
