(* Tests for the simulation substrate: heap, rng, scheduler, invariant. *)

let check_float = Alcotest.(check (float 1e-9))

(* The heap's removal is [pop_top], paired with [top_prio] the way the
   scheduler pairs them. *)
let pop h =
  if Sim.Heap.is_empty h then None
  else
    let prio = Sim.Heap.top_prio h in
    Some (prio, Sim.Heap.pop_top h)

(* Drain a scheduler by hand, charging [max_events] for fired events
   only, the way a budgeted run loop over [step] must. *)
let run_until_empty s ~max_events =
  let rec go budget =
    if budget > 0 then
      match Sim.Scheduler.For_testing.step s infinity with
      | `Fired -> go (budget - 1)
      | `Skipped -> go budget
      | `Done -> ()
  in
  go max_events

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

let test_heap_empty () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "empty" true (Sim.Heap.is_empty h);
  Alcotest.(check int) "length" 0 (Sim.Heap.length h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop" None (pop h)

let test_heap_single () =
  let h = Sim.Heap.create () in
  Sim.Heap.add h ~prio:3.5 "x";
  Alcotest.(check int) "length" 1 (Sim.Heap.length h);
  check_float "top_prio" 3.5 (Sim.Heap.top_prio h);
  Alcotest.(check (option (pair (float 0.0) string)))
    "pop" (Some (3.5, "x")) (pop h);
  Alcotest.(check bool) "empty after" true (Sim.Heap.is_empty h)

let test_heap_ordering () =
  let h = Sim.Heap.create () in
  List.iter (fun p -> Sim.Heap.add h ~prio:p p)
    [ 5.0; 1.0; 3.0; 2.0; 4.0; 0.5 ];
  let rec drain acc =
    match pop h with
    | None -> List.rev acc
    | Some (p, _) -> drain (p :: acc)
  in
  Alcotest.(check (list (float 0.0)))
    "ascending" [ 0.5; 1.0; 2.0; 3.0; 4.0; 5.0 ] (drain [])

let test_heap_fifo_ties () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.add h ~prio:1.0 v) [ "a"; "b"; "c" ];
  Sim.Heap.add h ~prio:0.5 "first";
  let order = ref [] in
  let rec drain () =
    match pop h with
    | None -> ()
    | Some (_, v) ->
        order := v :: !order;
        drain ()
  in
  drain ();
  Alcotest.(check (list string))
    "insertion order on ties" [ "first"; "a"; "b"; "c" ] (List.rev !order)

let test_heap_clear () =
  let h = Sim.Heap.create () in
  for i = 1 to 10 do
    Sim.Heap.add h ~prio:(float_of_int i) i
  done;
  Sim.Heap.clear h;
  Alcotest.(check bool) "cleared" true (Sim.Heap.is_empty h);
  Sim.Heap.add h ~prio:1.0 7;
  Alcotest.(check (option (pair (float 0.0) int)))
    "usable after clear" (Some (1.0, 7)) (pop h)

let test_heap_interleaved () =
  let h = Sim.Heap.create () in
  Sim.Heap.add h ~prio:2.0 2;
  Sim.Heap.add h ~prio:1.0 1;
  Alcotest.(check (option (pair (float 0.0) int))) "pop 1" (Some (1.0, 1))
    (pop h);
  Sim.Heap.add h ~prio:0.5 0;
  Alcotest.(check (option (pair (float 0.0) int))) "pop 0" (Some (0.5, 0))
    (pop h);
  Alcotest.(check (option (pair (float 0.0) int))) "pop 2" (Some (2.0, 2))
    (pop h)

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap drains in sorted order" ~count:200
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun prios ->
      let h = Sim.Heap.create () in
      List.iter (fun p -> Sim.Heap.add h ~prio:p ()) prios;
      let rec drain acc =
        match pop h with
        | None -> List.rev acc
        | Some (p, ()) -> drain (p :: acc)
      in
      let drained = drain [] in
      drained = List.sort compare prios)

(* The heap's full contract in one property: pop order equals a stable
   sort of the insertion sequence by priority.  Small integer
   priorities force plenty of ties, so FIFO tie-breaking is exercised
   on every run, not just when random floats happen to collide. *)
let prop_heap_stable_order =
  QCheck.Test.make ~name:"heap pop order = stable sort of insertions"
    ~count:300
    QCheck.(list (int_bound 15))
    (fun keys ->
      let h = Sim.Heap.create () in
      List.iteri (fun i k -> Sim.Heap.add h ~prio:(float_of_int k) (k, i)) keys;
      let rec drain acc =
        match pop h with
        | None -> List.rev acc
        | Some (_, v) -> drain (v :: acc)
      in
      let expected =
        List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) keys)
      in
      drain [] = expected)

let prop_heap_length =
  QCheck.Test.make ~name:"heap length tracks adds and pops" ~count:200
    QCheck.(list (float_bound_exclusive 100.0))
    (fun prios ->
      let h = Sim.Heap.create () in
      List.iteri (fun i p -> Sim.Heap.add h ~prio:p i) prios;
      let n = List.length prios in
      let ok = ref (Sim.Heap.length h = n) in
      for remaining = n downto 1 do
        ok := !ok && Sim.Heap.length h = remaining;
        ignore (pop h)
      done;
      !ok && Sim.Heap.is_empty h)

let test_heap_pop_entry_seqs () =
  let h = Sim.Heap.create () in
  List.iter (fun v -> Sim.Heap.add h ~prio:1.0 v) [ "a"; "b"; "c" ];
  let rec drain acc =
    if Sim.Heap.is_empty h then List.rev acc
    else
      let prio = Sim.Heap.top_prio h and seq = Sim.Heap.top_seq h in
      drain ((prio, seq, Sim.Heap.pop_top h) :: acc)
  in
  Alcotest.(check (list (triple (float 0.0) int string)))
    "top_seq returns insertion counters"
    [ (1.0, 0, "a"); (1.0, 1, "b"); (1.0, 2, "c") ]
    (drain [])

let test_heap_top_prio () =
  let h = Sim.Heap.create () in
  Alcotest.(check bool) "raises on empty" true
    (try
       ignore (Sim.Heap.top_prio h);
       false
     with Invalid_argument _ -> true);
  Sim.Heap.add h ~prio:2.0 "x";
  Sim.Heap.add h ~prio:1.0 "y";
  check_float "min priority" 1.0 (Sim.Heap.top_prio h);
  Alcotest.(check int) "read-only" 2 (Sim.Heap.length h)

(* The regression behind the SoA rewrite: popping used to leave the
   vacated slot pointing at the old element, pinning it until a later
   push happened to overwrite the slot.  Fill, drain, collect: every
   value must be collectable (observed through weak pointers) while
   the heap itself is still live. *)
let heap_live_after_drain prios =
  let n = List.length prios in
  let h = Sim.Heap.create () in
  let w = Weak.create (max n 1) in
  List.iteri
    (fun i p ->
      let v = ref i in
      Weak.set w i (Some v);
      Sim.Heap.add h ~prio:p v)
    prios;
  let rec drain () =
    match pop h with Some _ -> drain () | None -> ()
  in
  drain ();
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  (* Keep [h] reachable past the major collection: if the heap itself
     were collectable the check would pass even with leaky slots. *)
  assert (Sim.Heap.is_empty h);
  !live

let test_heap_drained_retains_no_values () =
  Alcotest.(check int) "no values pinned after drain" 0
    (heap_live_after_drain [ 5.0; 1.0; 3.0; 2.0; 4.0 ])

let prop_heap_drained_retains_no_values =
  QCheck.Test.make ~name:"drained heap retains no values" ~count:100
    QCheck.(list (float_bound_exclusive 1000.0))
    (fun prios -> heap_live_after_drain prios = 0)

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Sim.Rng.create 1234 and b = Sim.Rng.create 1234 in
  for _ = 1 to 100 do
    check_float "same stream" (Sim.Rng.uniform a) (Sim.Rng.uniform b)
  done

let test_rng_seed_sensitivity () =
  let a = Sim.Rng.create 1 and b = Sim.Rng.create 2 in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.int a max_int = Sim.Rng.int b max_int then incr same
  done;
  Alcotest.(check bool) "different seeds diverge" true (!same < 4)

let test_rng_uniform_range () =
  let rng = Sim.Rng.create 7 in
  for _ = 1 to 10_000 do
    let u = Sim.Rng.uniform rng in
    if u < 0.0 || u >= 1.0 then Alcotest.fail "uniform out of [0,1)"
  done

let test_rng_uniform_mean () =
  let rng = Sim.Rng.create 99 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.uniform rng
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 0.5" true (abs_float (mean -. 0.5) < 0.01)

let test_rng_int_bounds () =
  let rng = Sim.Rng.create 5 in
  let seen = Array.make 10 false in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 10 in
    if v < 0 || v >= 10 then Alcotest.fail "int out of range";
    seen.(v) <- true
  done;
  Alcotest.(check bool) "all values hit" true (Array.for_all Fun.id seen)

let test_rng_int_invalid () =
  let rng = Sim.Rng.create 5 in
  Alcotest.check_raises "zero bound" (Invalid_argument "Rng.int: bound must be positive")
    (fun () -> ignore (Sim.Rng.int rng 0))

let test_rng_bernoulli () =
  let rng = Sim.Rng.create 11 in
  let hits = ref 0 in
  let n = 100_000 in
  for _ = 1 to n do
    if Sim.Rng.bernoulli rng 0.3 then incr hits
  done;
  let freq = float_of_int !hits /. float_of_int n in
  Alcotest.(check bool) "bernoulli(0.3)" true (abs_float (freq -. 0.3) < 0.01)

let test_rng_exponential_mean () =
  let rng = Sim.Rng.create 13 in
  let n = 100_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    let x = Sim.Rng.exponential rng 2.0 in
    if x < 0.0 then Alcotest.fail "exponential negative";
    sum := !sum +. x
  done;
  let mean = !sum /. float_of_int n in
  Alcotest.(check bool) "mean near 2" true (abs_float (mean -. 2.0) < 0.05)

let test_rng_split_independent () =
  let root = Sim.Rng.create 21 in
  let a = Sim.Rng.split root in
  let b = Sim.Rng.split root in
  let same = ref 0 in
  for _ = 1 to 64 do
    if Sim.Rng.int a max_int = Sim.Rng.int b max_int then incr same
  done;
  Alcotest.(check bool) "split streams differ" true (!same < 4)

let test_rng_copy () =
  let a = Sim.Rng.create 31 in
  ignore (Sim.Rng.uniform a);
  let b = Sim.Rng.create 0 in
  Sim.Rng.set_state b (Sim.Rng.state a);
  for _ = 1 to 10 do
    Alcotest.(check int) "copy replays" (Sim.Rng.int a max_int)
      (Sim.Rng.int b max_int)
  done

let test_rng_range () =
  let rng = Sim.Rng.create 17 in
  for _ = 1 to 1000 do
    let v = Sim.Rng.range rng 3.0 7.0 in
    if v < 3.0 || v >= 7.0 then Alcotest.fail "range out of bounds"
  done

(* ------------------------------------------------------------------ *)
(* Scheduler                                                          *)
(* ------------------------------------------------------------------ *)

let test_sched_ordering () =
  let s = Sim.Scheduler.create () in
  let log = ref [] in
  ignore (Sim.Scheduler.schedule_at s 2.0 (fun () -> log := 2 :: !log));
  ignore (Sim.Scheduler.schedule_at s 1.0 (fun () -> log := 1 :: !log));
  ignore (Sim.Scheduler.schedule_at s 3.0 (fun () -> log := 3 :: !log));
  Sim.Scheduler.run_until s 10.0;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log)

let test_sched_same_time_fifo () =
  let s = Sim.Scheduler.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Sim.Scheduler.schedule_at s 1.0 (fun () -> log := i :: !log))
  done;
  Sim.Scheduler.run_until s 2.0;
  Alcotest.(check (list int)) "fifo at equal time" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_sched_clock_advances () =
  let s = Sim.Scheduler.create () in
  let seen = ref 0.0 in
  ignore (Sim.Scheduler.schedule_at s 1.5 (fun () -> seen := Sim.Scheduler.now s));
  Sim.Scheduler.run_until s 10.0;
  check_float "clock at event time" 1.5 !seen;
  check_float "clock at horizon" 10.0 (Sim.Scheduler.now s)

let test_sched_horizon_excludes_future () =
  let s = Sim.Scheduler.create () in
  let fired = ref false in
  ignore (Sim.Scheduler.schedule_at s 5.0 (fun () -> fired := true));
  Sim.Scheduler.run_until s 4.0;
  Alcotest.(check bool) "not fired" false !fired;
  Sim.Scheduler.run_until s 6.0;
  Alcotest.(check bool) "fired later" true !fired

let test_sched_past_rejected () =
  let s = Sim.Scheduler.create () in
  ignore (Sim.Scheduler.schedule_at s 2.0 (fun () -> ()));
  Sim.Scheduler.run_until s 3.0;
  Alcotest.(check bool) "raises on past" true
    (try
       ignore (Sim.Scheduler.schedule_at s 1.0 (fun () -> ()));
       false
     with Invalid_argument _ -> true)

let test_sched_cancel () =
  let s = Sim.Scheduler.create () in
  let fired = ref false in
  let id = Sim.Scheduler.schedule_at s 1.0 (fun () -> fired := true) in
  Sim.Scheduler.cancel s id;
  Sim.Scheduler.run_until s 2.0;
  Alcotest.(check bool) "cancelled event silent" false !fired

let test_sched_cancel_idempotent () =
  let s = Sim.Scheduler.create () in
  let id = Sim.Scheduler.schedule_at s 1.0 (fun () -> ()) in
  Sim.Scheduler.cancel s id;
  Sim.Scheduler.cancel s id;
  Alcotest.(check int) "pending went to zero once" 0 (Sim.Scheduler.For_testing.pending s)

let test_sched_cancel_after_fire () =
  let s = Sim.Scheduler.create () in
  let id = Sim.Scheduler.schedule_at s 1.0 (fun () -> ()) in
  Sim.Scheduler.run_until s 2.0;
  Alcotest.(check int) "fired" 1 (Sim.Scheduler.events_fired s);
  Alcotest.(check int) "pending zero" 0 (Sim.Scheduler.For_testing.pending s);
  (* Cancelling a fired id must be a strict no-op: no negative drift,
     no effect on later events. *)
  Sim.Scheduler.cancel s id;
  Alcotest.(check int) "pending still zero" 0 (Sim.Scheduler.For_testing.pending s);
  let fired = ref false in
  ignore (Sim.Scheduler.schedule_at s 3.0 (fun () -> fired := true));
  Alcotest.(check int) "new event pending" 1 (Sim.Scheduler.For_testing.pending s);
  Sim.Scheduler.run_until s 4.0;
  Alcotest.(check bool) "new event fires" true !fired;
  Alcotest.(check int) "pending back to zero" 0 (Sim.Scheduler.For_testing.pending s)

(* The Done / Fired / Skipped contract of [step], one event at a time,
   including a cancel after the event fired. *)
let test_sched_step () =
  let s = Sim.Scheduler.create () in
  let step horizon = Sim.Scheduler.For_testing.step s horizon in
  Alcotest.(check bool) "empty queue is Done" true (step infinity = `Done);
  let hits = ref 0 in
  let id = Sim.Scheduler.schedule_at s 1.0 (fun () -> incr hits) in
  ignore (Sim.Scheduler.schedule_at s 2.0 (fun () -> incr hits));
  Alcotest.(check bool) "beyond horizon is Done" true (step 0.5 = `Done);
  Alcotest.(check bool) "first event Fired" true (step 10.0 = `Fired);
  Alcotest.(check int) "closure ran" 1 !hits;
  check_float "clock follows the event" 1.0 (Sim.Scheduler.now s);
  Sim.Scheduler.cancel s id;
  Alcotest.(check bool) "cancel after fire: next event Fired" true
    (step 10.0 = `Fired);
  let id3 = Sim.Scheduler.schedule_at s 3.0 (fun () -> incr hits) in
  Sim.Scheduler.cancel s id3;
  Alcotest.(check bool) "cancelled entry is Skipped" true (step 10.0 = `Skipped);
  Alcotest.(check bool) "then Done" true (step 10.0 = `Done);
  Alcotest.(check int) "cancelled closure never ran" 2 !hits

let test_sched_double_cancel_then_fire_others () =
  let s = Sim.Scheduler.create () in
  let hit = ref 0 in
  let a = Sim.Scheduler.schedule_at s 1.0 (fun () -> incr hit) in
  ignore (Sim.Scheduler.schedule_at s 2.0 (fun () -> incr hit));
  Sim.Scheduler.cancel s a;
  Sim.Scheduler.cancel s a;
  Alcotest.(check int) "one pending after double cancel" 1
    (Sim.Scheduler.For_testing.pending s);
  Sim.Scheduler.run_until s 3.0;
  Alcotest.(check int) "only survivor fired" 1 !hit;
  Alcotest.(check int) "fired counter" 1 (Sim.Scheduler.events_fired s);
  Alcotest.(check int) "pending exhausted" 0 (Sim.Scheduler.For_testing.pending s)

let test_sched_cancel_storm_invariants () =
  (* Interleave scheduling, firing, and redundant cancels; [pending]
     must always equal the number of live events and never go
     negative. *)
  let s = Sim.Scheduler.create () in
  let ids =
    List.init 100 (fun i ->
        Sim.Scheduler.schedule_at s (float_of_int (i + 1)) (fun () -> ()))
  in
  (* Cancel the even-indexed half, twice each. *)
  List.iteri
    (fun i id ->
      if i mod 2 = 0 then begin
        Sim.Scheduler.cancel s id;
        Sim.Scheduler.cancel s id
      end)
    ids;
  Alcotest.(check int) "half pending" 50 (Sim.Scheduler.For_testing.pending s);
  Sim.Scheduler.run_until s 1000.0;
  Alcotest.(check int) "half fired" 50 (Sim.Scheduler.events_fired s);
  Alcotest.(check int) "none pending" 0 (Sim.Scheduler.For_testing.pending s);
  (* Cancel everything again after the fact: still a no-op. *)
  List.iter (fun id -> Sim.Scheduler.cancel s id) ids;
  Alcotest.(check int) "still none pending" 0 (Sim.Scheduler.For_testing.pending s)

let test_sched_schedule_during_event () =
  let s = Sim.Scheduler.create () in
  let log = ref [] in
  ignore
    (Sim.Scheduler.schedule_at s 1.0 (fun () ->
         log := "outer" :: !log;
         ignore
           (Sim.Scheduler.schedule_after s 0.5 (fun () ->
                log := "inner" :: !log))));
  Sim.Scheduler.run_until s 2.0;
  Alcotest.(check (list string)) "nested events" [ "outer"; "inner" ]
    (List.rev !log)

let test_sched_zero_delay_event () =
  let s = Sim.Scheduler.create () in
  let count = ref 0 in
  ignore
    (Sim.Scheduler.schedule_at s 1.0 (fun () ->
         ignore (Sim.Scheduler.schedule_after s 0.0 (fun () -> incr count))));
  Sim.Scheduler.run_until s 1.0;
  Alcotest.(check int) "zero-delay fires within horizon" 1 !count

let test_sched_counters () =
  let s = Sim.Scheduler.create () in
  for i = 1 to 5 do
    ignore (Sim.Scheduler.schedule_at s (float_of_int i) (fun () -> ()))
  done;
  Alcotest.(check int) "pending" 5 (Sim.Scheduler.For_testing.pending s);
  Sim.Scheduler.run_until s 3.0;
  Alcotest.(check int) "fired" 3 (Sim.Scheduler.events_fired s);
  Alcotest.(check int) "pending remaining" 2 (Sim.Scheduler.For_testing.pending s)

let test_sched_run_until_empty () =
  let s = Sim.Scheduler.create () in
  let count = ref 0 in
  let rec chain n =
    if n > 0 then
      ignore
        (Sim.Scheduler.schedule_after s 1.0 (fun () ->
             incr count;
             chain (n - 1)))
  in
  chain 5;
  run_until_empty s ~max_events:100;
  Alcotest.(check int) "all chained events" 5 !count

let test_sched_run_until_empty_bounded () =
  let s = Sim.Scheduler.create () in
  let count = ref 0 in
  let rec forever () =
    ignore
      (Sim.Scheduler.schedule_after s 1.0 (fun () ->
           incr count;
           forever ()))
  in
  forever ();
  run_until_empty s ~max_events:50;
  Alcotest.(check int) "bounded by max_events" 50 !count

let test_sched_rejects_nonfinite () =
  let s = Sim.Scheduler.create () in
  let raises f = try f (); false with Invalid_argument _ -> true in
  Alcotest.(check bool) "schedule_at nan" true
    (raises (fun () ->
         ignore (Sim.Scheduler.schedule_at s Float.nan (fun () -> ()))));
  Alcotest.(check bool) "schedule_at +inf" true
    (raises (fun () ->
         ignore (Sim.Scheduler.schedule_at s Float.infinity (fun () -> ()))));
  Alcotest.(check bool) "schedule_at -inf" true
    (raises (fun () ->
         ignore (Sim.Scheduler.schedule_at s Float.neg_infinity (fun () -> ()))));
  Alcotest.(check bool) "schedule_after nan" true
    (raises (fun () ->
         ignore (Sim.Scheduler.schedule_after s Float.nan (fun () -> ()))));
  Alcotest.(check bool) "schedule_after +inf" true
    (raises (fun () ->
         ignore (Sim.Scheduler.schedule_after s Float.infinity (fun () -> ()))));
  (* The rejection must leave the scheduler untouched. *)
  Alcotest.(check int) "nothing pending" 0 (Sim.Scheduler.For_testing.pending s);
  let ok = ref false in
  ignore (Sim.Scheduler.schedule_at s 1.0 (fun () -> ok := true));
  Sim.Scheduler.run_until s 2.0;
  Alcotest.(check bool) "finite time still works" true !ok

(* Regression: [run_until_empty ~max_events] used to charge the budget
   for cancelled events it lazily discarded from the heap, so a
   cancel-heavy run could stop far short of [max_events] real firings.
   The budget must count fired events only. *)
let test_sched_max_events_ignores_cancelled () =
  let s = Sim.Scheduler.create () in
  let fired = ref 0 in
  let ids =
    List.init 20 (fun i ->
        Sim.Scheduler.schedule_at s (float_of_int (i + 1)) (fun () ->
            incr fired))
  in
  (* Cancel the 10 earliest, so every skip precedes every real firing;
     under the buggy accounting zero events would fire. *)
  List.iteri (fun i id -> if i < 10 then Sim.Scheduler.cancel s id) ids;
  run_until_empty s ~max_events:5;
  Alcotest.(check int) "five real events fired" 5 !fired;
  Alcotest.(check int) "events_fired counter" 5 (Sim.Scheduler.events_fired s);
  Alcotest.(check int) "five survivors pending" 5 (Sim.Scheduler.For_testing.pending s);
  (* The remaining budget-less drain still works. *)
  run_until_empty s ~max_events:100;
  Alcotest.(check int) "rest fired" 10 !fired

(* Model-based cancel property: schedule up to 400 events on a small
   integer time grid (forcing ties), cancel an arbitrary subset twice
   (double-cancel), run to a mid-horizon, cancel a second arbitrary
   subset — which now includes ids that already fired — and run to
   completion.  In a cancel-heavy case ([heavy] = k > 0) all but every
   (k+1)-th event are also cancelled up front and each event that fires
   cancels another one, so the cancelled entries outnumber the live
   ones and the heap is compacted both between runs and from inside
   event actions.  Optionally the scheduler goes through a
   [capture]/[restore]/[rearm] round trip at the mid-horizon.  The
   survivors must fire exactly in the model's (time, insertion index)
   order, and the fired/pending counters must agree with the model,
   i.e. no cancel or compaction ever perturbs other events. *)
let prop_sched_cancel_survivors =
  QCheck.Test.make
    ~name:"cancel/double-cancel/cancel-after-fire keeps survivor order"
    ~count:300
    QCheck.(
      quad
        (list_of_size Gen.(1 -- 400) (int_bound 9))
        (pair (list (int_bound 1000)) (list (int_bound 1000)))
        (int_bound 8) bool)
    (fun (times, (pre_raw, post_raw), heavy, round_trip) ->
      let n = List.length times in
      let times_arr = Array.of_list times in
      let victim i = ((i * 37) + 11) mod n in
      let log = ref [] in
      let sched = ref (Sim.Scheduler.create ()) in
      let ids = Array.make n (-1) in
      let actions =
        Array.init n (fun i () ->
            log := i :: !log;
            if heavy > 0 then Sim.Scheduler.cancel !sched ids.(victim i))
      in
      List.iteri
        (fun i time ->
          ids.(i) <- Sim.Scheduler.schedule_at !sched (float_of_int time) actions.(i))
        times;
      let pre = List.map (fun r -> r mod n) pre_raw in
      let up_front =
        if heavy = 0 then []
        else List.filter (fun i -> i mod (heavy + 1) <> 0) (List.init n Fun.id)
      in
      List.iter (fun i -> Sim.Scheduler.cancel !sched ids.(i)) pre;
      List.iter (fun i -> Sim.Scheduler.cancel !sched ids.(i)) (pre @ up_front);
      Sim.Scheduler.run_until !sched 4.0;
      let restored_ok =
        (not round_trip)
        ||
        let st = Sim.Scheduler.capture !sched in
        let s' = Sim.Scheduler.create () in
        Sim.Scheduler.restore s' st;
        sched := s';
        List.iter
          (fun (id, _) ->
            (* Ids were issued in index order from 0. *)
            Sim.Scheduler.rearm s' ~id actions.(id))
          st.Sim.Scheduler.s_pending;
        Sim.Scheduler.unrestored s' = []
      in
      let post = List.map (fun r -> r mod n) post_raw in
      List.iter (fun i -> Sim.Scheduler.cancel !sched ids.(i)) post;
      Sim.Scheduler.run_until !sched 20.0;
      let fired = List.rev !log in
      (* The model: walk the events in (time, index) order; one fires
         unless it was cancelled before its turn. *)
      let cancelled = Array.make n false in
      List.iter (fun i -> cancelled.(i) <- true) (pre @ up_front);
      let order =
        List.init n Fun.id
        |> List.stable_sort (fun a b ->
               compare (times_arr.(a), a) (times_arr.(b), b))
      in
      let expected = ref [] in
      let run ~until =
        List.iter
          (fun i ->
            if times_arr.(i) <= until && not cancelled.(i) then begin
              cancelled.(i) <- true;
              expected := i :: !expected;
              if heavy > 0 then cancelled.(victim i) <- true
            end)
          order
      in
      run ~until:4;
      List.iter (fun i -> cancelled.(i) <- true) post;
      run ~until:20;
      let expected = List.rev !expected in
      restored_ok
      && fired = expected
      && Sim.Scheduler.For_testing.pending !sched = 0
      && Sim.Scheduler.events_fired !sched = List.length expected)

(* Cancelled timers must not pin what their closures capture until
   their fire time.  1,000 far-future events each capture a block
   watched through a weak pointer; after they are cancelled and one
   timer keeps restarting (cancel + re-arm every 10 ms, as a TCP
   sender does on each ack), a major collection may find only a few
   of them still reachable, long before any would have fired. *)
let test_sched_cancelled_release_closures () =
  let s = Sim.Scheduler.create () in
  let n = 1000 in
  let w = Weak.create n in
  let ids =
    Array.init n (fun i ->
        let block = ref i in
        Weak.set w i (Some block);
        Sim.Scheduler.schedule_at s (1000.0 +. float_of_int i) (fun () ->
            incr block))
  in
  Array.iter (Sim.Scheduler.cancel s) ids;
  let timer = ref (-1) in
  let expire () = () in
  let rec tick () =
    Sim.Scheduler.cancel s !timer;
    timer := Sim.Scheduler.schedule_after s 0.2 expire;
    ignore (Sim.Scheduler.schedule_after s 0.01 tick : Sim.Scheduler.event_id)
  in
  ignore (Sim.Scheduler.schedule_at s 0.0 tick : Sim.Scheduler.event_id);
  Sim.Scheduler.run_until s 1.0;
  Gc.full_major ();
  let live = ref 0 in
  for i = 0 to n - 1 do
    if Weak.check w i then incr live
  done;
  (* The scheduler itself is still live, so its heap could pin them. *)
  Alcotest.(check int) "timer and ticker pending" 2 (Sim.Scheduler.For_testing.pending s);
  if !live > 64 then
    Alcotest.failf "%d of %d cancelled closures still reachable" !live n

(* ------------------------------------------------------------------ *)
(* Invariant                                                          *)
(* ------------------------------------------------------------------ *)

let test_invariant_counters () =
  Sim.Invariant.For_testing.reset_counters ();
  Sim.Invariant.require true (fun () -> "fine");
  Alcotest.(check int) "checks counted" 1 (Sim.Invariant.For_testing.checks_run ());
  Alcotest.(check int) "no failures" 0 (Sim.Invariant.For_testing.failures_seen ());
  (match Sim.Invariant.require false (fun () -> "boom") with
  | () -> Alcotest.fail "expected Violation"
  | exception Sim.Invariant.Violation msg ->
      Alcotest.(check string) "message" "boom" msg);
  Alcotest.(check int) "failure counted" 1 (Sim.Invariant.For_testing.failures_seen ());
  Sim.Invariant.For_testing.reset_counters ();
  Alcotest.(check int) "counters reset" 0 (Sim.Invariant.For_testing.checks_run ())

let test_invariant_scheduler_clean () =
  (* A checked scheduler run over interleaved events trips nothing. *)
  let was = !Sim.Invariant.enabled in
  Fun.protect
    ~finally:(fun () -> Sim.Invariant.enabled := was)
    (fun () ->
      Sim.Invariant.enabled := true;
      Sim.Invariant.For_testing.reset_counters ();
      let s = Sim.Scheduler.create () in
      for i = 0 to 99 do
        let at = float_of_int ((i * 7919) mod 100) /. 10.0 in
        ignore (Sim.Scheduler.schedule_at s at (fun () -> ()))
      done;
      run_until_empty s ~max_events:1000;
      Alcotest.(check bool) "checks ran" true (Sim.Invariant.For_testing.checks_run () > 0);
      Alcotest.(check int) "no violations" 0 (Sim.Invariant.For_testing.failures_seen ()))

let () =
  Alcotest.run "sim"
    [
      ( "heap",
        [
          Alcotest.test_case "empty" `Quick test_heap_empty;
          Alcotest.test_case "single" `Quick test_heap_single;
          Alcotest.test_case "ordering" `Quick test_heap_ordering;
          Alcotest.test_case "fifo ties" `Quick test_heap_fifo_ties;
          Alcotest.test_case "clear" `Quick test_heap_clear;
          Alcotest.test_case "interleaved" `Quick test_heap_interleaved;
          Alcotest.test_case "pop_entry seqs" `Quick test_heap_pop_entry_seqs;
          Alcotest.test_case "top_prio" `Quick test_heap_top_prio;
          Alcotest.test_case "drained retains no values" `Quick
            test_heap_drained_retains_no_values;
          QCheck_alcotest.to_alcotest prop_heap_sorts;
          QCheck_alcotest.to_alcotest prop_heap_stable_order;
          QCheck_alcotest.to_alcotest prop_heap_length;
          QCheck_alcotest.to_alcotest prop_heap_drained_retains_no_values;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "seed sensitivity" `Quick test_rng_seed_sensitivity;
          Alcotest.test_case "uniform range" `Quick test_rng_uniform_range;
          Alcotest.test_case "uniform mean" `Quick test_rng_uniform_mean;
          Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
          Alcotest.test_case "int invalid" `Quick test_rng_int_invalid;
          Alcotest.test_case "bernoulli" `Quick test_rng_bernoulli;
          Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
          Alcotest.test_case "split independent" `Quick test_rng_split_independent;
          Alcotest.test_case "copy replays" `Quick test_rng_copy;
          Alcotest.test_case "range" `Quick test_rng_range;
        ] );
      ( "scheduler",
        [
          Alcotest.test_case "ordering" `Quick test_sched_ordering;
          Alcotest.test_case "fifo same time" `Quick test_sched_same_time_fifo;
          Alcotest.test_case "clock advances" `Quick test_sched_clock_advances;
          Alcotest.test_case "horizon" `Quick test_sched_horizon_excludes_future;
          Alcotest.test_case "past rejected" `Quick test_sched_past_rejected;
          Alcotest.test_case "cancel" `Quick test_sched_cancel;
          Alcotest.test_case "cancel idempotent" `Quick test_sched_cancel_idempotent;
          Alcotest.test_case "cancel after fire" `Quick test_sched_cancel_after_fire;
          Alcotest.test_case "double cancel, others fire" `Quick
            test_sched_double_cancel_then_fire_others;
          Alcotest.test_case "cancel storm invariants" `Quick
            test_sched_cancel_storm_invariants;
          Alcotest.test_case "nested scheduling" `Quick test_sched_schedule_during_event;
          Alcotest.test_case "zero delay" `Quick test_sched_zero_delay_event;
          Alcotest.test_case "counters" `Quick test_sched_counters;
          Alcotest.test_case "run_until_empty" `Quick test_sched_run_until_empty;
          Alcotest.test_case "rejects non-finite times" `Quick
            test_sched_rejects_nonfinite;
          Alcotest.test_case "max_events ignores cancelled" `Quick
            test_sched_max_events_ignores_cancelled;
          Alcotest.test_case "run_until_empty bounded" `Quick
            test_sched_run_until_empty_bounded;
          Alcotest.test_case "cancelled events release their closures" `Quick
            test_sched_cancelled_release_closures;
          QCheck_alcotest.to_alcotest prop_sched_cancel_survivors;
        ] );
      ( "invariant",
        [
          Alcotest.test_case "counters" `Quick test_invariant_counters;
          Alcotest.test_case "scheduler clean" `Quick
            test_invariant_scheduler_clean;
        ] );
      ("sim", [ Alcotest.test_case "scheduler step" `Quick test_sched_step ]);
    ]
