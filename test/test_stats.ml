(* Tests for the statistics library. *)

let check_float = Alcotest.(check (float 1e-9))

let check_close msg ?(tol = 1e-6) expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Ewma                                                               *)
(* ------------------------------------------------------------------ *)

let test_ewma_first_sample () =
  let e = Stats.Ewma.create ~weight:0.1 in
  check_float "empty" 0.0 (Stats.Ewma.value e);
  Stats.Ewma.update e 5.0;
  check_float "first sample sets value" 5.0 (Stats.Ewma.value e)

let test_ewma_update () =
  let e = Stats.Ewma.create ~weight:0.5 in
  Stats.Ewma.update e 10.0;
  Stats.Ewma.update e 20.0;
  check_float "half-way" 15.0 (Stats.Ewma.value e);
  Stats.Ewma.update e 15.0;
  check_float "converging" 15.0 (Stats.Ewma.value e)

let test_ewma_constant_stream () =
  let e = Stats.Ewma.create ~weight:0.01 in
  for _ = 1 to 100 do
    Stats.Ewma.update e 7.0
  done;
  check_float "constant stream" 7.0 (Stats.Ewma.value e);
  Alcotest.(check int) "samples" 100 (Stats.Ewma.capture e).Stats.Ewma.s_samples

let test_ewma_reset () =
  let e = Stats.Ewma.create ~weight:0.5 in
  Stats.Ewma.update e 3.0;
  Stats.Ewma.restore e { Stats.Ewma.s_avg = 0.0; s_samples = 0 };
  Alcotest.(check int) "samples reset" 0 (Stats.Ewma.capture e).Stats.Ewma.s_samples;
  Stats.Ewma.update e 9.0;
  check_float "behaves as fresh" 9.0 (Stats.Ewma.value e)

let test_ewma_invalid_weight () =
  Alcotest.(check bool) "rejects 0" true
    (try ignore (Stats.Ewma.create ~weight:0.0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "rejects >1" true
    (try ignore (Stats.Ewma.create ~weight:1.5); false
     with Invalid_argument _ -> true)

let prop_ewma_between_extremes =
  QCheck.Test.make ~name:"ewma stays within sample extremes" ~count:200
    QCheck.(pair (float_bound_exclusive 1.0) (list_of_size Gen.(1 -- 50) (float_bound_exclusive 100.0)))
    (fun (w, samples) ->
      QCheck.assume (w > 0.0);
      let e = Stats.Ewma.create ~weight:w in
      List.iter (Stats.Ewma.update e) samples;
      let lo = List.fold_left Stdlib.min infinity samples in
      let hi = List.fold_left Stdlib.max neg_infinity samples in
      let v = Stats.Ewma.value e in
      v >= lo -. 1e-9 && v <= hi +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Welford                                                            *)
(* ------------------------------------------------------------------ *)

(* Sample variance (unbiased) from the accumulator's state. *)
let variance w =
  let st = Stats.Welford.capture w in
  if st.Stats.Welford.s_n < 2 then 0.0
  else st.s_m2 /. float_of_int (st.s_n - 1)

let test_welford_basic () =
  let w = Stats.Welford.create () in
  List.iter (Stats.Welford.add w) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_close "mean" 5.0 (Stats.Welford.mean w);
  check_close "variance" ~tol:1e-9 4.571428571428571 (variance w);
  check_float "min" 2.0 (Stats.Welford.capture w).Stats.Welford.s_min;
  check_float "max" 9.0 (Stats.Welford.capture w).Stats.Welford.s_max;
  Alcotest.(check int) "count" 8 (Stats.Welford.count w)

let test_welford_empty () =
  let w = Stats.Welford.create () in
  check_float "mean 0" 0.0 (Stats.Welford.mean w);
  check_float "variance 0" 0.0 (variance w)

let test_welford_single () =
  let w = Stats.Welford.create () in
  Stats.Welford.add w 3.0;
  check_float "mean" 3.0 (Stats.Welford.mean w);
  check_float "variance single" 0.0 (variance w)

let prop_welford_mean_bounds =
  QCheck.Test.make ~name:"welford mean within [min, max]" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1000.0))
    (fun xs ->
      let w = Stats.Welford.create () in
      List.iter (Stats.Welford.add w) xs;
      let st = Stats.Welford.capture w in
      Stats.Welford.mean w >= st.Stats.Welford.s_min -. 1e-9
      && Stats.Welford.mean w <= st.s_max +. 1e-9)

(* ------------------------------------------------------------------ *)
(* Time_avg                                                           *)
(* ------------------------------------------------------------------ *)

let test_time_avg_constant () =
  let t = Stats.Time_avg.create ~start:0.0 ~value:4.0 in
  check_float "constant signal" 4.0 (Stats.Time_avg.average t ~upto:10.0)

let test_time_avg_step () =
  let t = Stats.Time_avg.create ~start:0.0 ~value:0.0 in
  Stats.Time_avg.update t ~time:5.0 ~value:10.0;
  (* 0 for 5 s then 10 for 5 s -> mean 5. *)
  check_float "step signal" 5.0 (Stats.Time_avg.average t ~upto:10.0)

let test_time_avg_weighted () =
  let t = Stats.Time_avg.create ~start:0.0 ~value:1.0 in
  Stats.Time_avg.update t ~time:1.0 ~value:3.0;
  Stats.Time_avg.update t ~time:4.0 ~value:0.0;
  (* 1*1 + 3*3 + 0*6 over 10 s = 1.0 *)
  check_float "weighted" 1.0 (Stats.Time_avg.average t ~upto:10.0)

let test_time_avg_zero_span () =
  let t = Stats.Time_avg.create ~start:2.0 ~value:7.0 in
  check_float "zero span returns current" 7.0 (Stats.Time_avg.average t ~upto:2.0)

let test_time_avg_backwards_rejected () =
  let t = Stats.Time_avg.create ~start:5.0 ~value:1.0 in
  Alcotest.(check bool) "raises" true
    (try
       Stats.Time_avg.update t ~time:4.0 ~value:2.0;
       false
     with Invalid_argument _ -> true)

let test_time_avg_reset () =
  let t = Stats.Time_avg.create ~start:0.0 ~value:100.0 in
  Stats.Time_avg.update t ~time:10.0 ~value:2.0;
  Stats.Time_avg.reset t ~start:10.0 ~value:2.0;
  check_float "post-reset ignores history" 2.0 (Stats.Time_avg.average t ~upto:20.0);
  check_float "current" 2.0 (Stats.Time_avg.capture t).Stats.Time_avg.s_last_value

(* ------------------------------------------------------------------ *)
(* Density                                                            *)
(* ------------------------------------------------------------------ *)

let test_density_basic () =
  let d = Stats.Density.create ~x_lo:0.0 ~x_hi:10.0 ~y_lo:0.0 ~y_hi:10.0 ~cells:10 in
  Stats.Density.add d ~x:0.5 ~y:0.5;
  Stats.Density.add d ~x:0.5 ~y:0.5;
  Stats.Density.add d ~x:9.5 ~y:9.5;
  Alcotest.(check int) "cell (0,0)" 2 (Stats.Density.For_testing.cell d 0 0);
  Alcotest.(check int) "cell (9,9)" 1 (Stats.Density.For_testing.cell d 9 9);
  Alcotest.(check int) "total" 3 (Stats.Density.For_testing.total d)

let test_density_clamping () =
  let d = Stats.Density.create ~x_lo:0.0 ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0 ~cells:2 in
  Stats.Density.add d ~x:(-5.0) ~y:50.0;
  Alcotest.(check int) "clamped to border" 1 (Stats.Density.For_testing.cell d 0 1)

let test_density_centroid () =
  let d = Stats.Density.create ~x_lo:0.0 ~x_hi:10.0 ~y_lo:0.0 ~y_hi:10.0 ~cells:10 in
  Stats.Density.add d ~x:2.5 ~y:2.5;
  Stats.Density.add d ~x:7.5 ~y:7.5;
  let cx, cy = Stats.Density.centroid d in
  check_float "centroid x" 5.0 cx;
  check_float "centroid y" 5.0 cy

let test_density_mass_within () =
  let d = Stats.Density.create ~x_lo:0.0 ~x_hi:10.0 ~y_lo:0.0 ~y_hi:10.0 ~cells:10 in
  for _ = 1 to 9 do
    Stats.Density.add d ~x:5.0 ~y:5.0
  done;
  Stats.Density.add d ~x:0.5 ~y:0.5;
  let mass = Stats.Density.mass_within d ~cx:5.5 ~cy:5.5 ~radius:1.0 in
  check_float "mass near center" 0.9 mass

let test_density_empty_centroid () =
  let d = Stats.Density.create ~x_lo:0.0 ~x_hi:1.0 ~y_lo:0.0 ~y_hi:1.0 ~cells:2 in
  Alcotest.(check (pair (float 0.0) (float 0.0))) "empty centroid" (0.0, 0.0)
    (Stats.Density.centroid d)

(* ------------------------------------------------------------------ *)
(* Quantile                                                           *)
(* ------------------------------------------------------------------ *)

let test_quantile_basic () =
  let q = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add q) [ 5.0; 1.0; 3.0; 2.0; 4.0 ];
  check_float "median" 3.0 (Stats.Quantile.quantile q 0.5);
  check_float "q0" 1.0 (Stats.Quantile.quantile q 0.0);
  check_float "q1" 5.0 (Stats.Quantile.quantile q 1.0);
  check_float "interpolated" 1.5 (Stats.Quantile.quantile q 0.125)

let test_quantile_mean () =
  let q = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add q) [ 1.0; 2.0; 3.0 ];
  check_float "mean" 2.0 (Stats.Quantile.mean q)

let test_quantile_empty () =
  let q = Stats.Quantile.create () in
  check_float "mean of empty" 0.0 (Stats.Quantile.mean q);
  Alcotest.(check bool) "quantile raises" true
    (try ignore (Stats.Quantile.quantile q 0.5); false
     with Invalid_argument _ -> true)

let test_quantile_add_after_sort () =
  let q = Stats.Quantile.create () in
  List.iter (Stats.Quantile.add q) [ 3.0; 1.0 ];
  ignore (Stats.Quantile.quantile q 0.5);
  Stats.Quantile.add q 2.0;
  check_float "resorted" 2.0 (Stats.Quantile.quantile q 0.5)

let prop_quantile_sorted =
  QCheck.Test.make ~name:"to_sorted_array is sorted and complete" ~count:200
    QCheck.(list (float_bound_exclusive 100.0))
    (fun xs ->
      let q = Stats.Quantile.create () in
      List.iter (Stats.Quantile.add q) xs;
      let sorted = List.sort compare xs in
      let n = List.length xs in
      List.for_all2
        (fun k x ->
          let at = float_of_int k /. float_of_int (n - 1) in
          n < 2 || Float.abs (Stats.Quantile.quantile q at -. x) < 1e-9)
        (List.init n Fun.id) sorted)

let () =
  Alcotest.run "stats"
    [
      ( "ewma",
        [
          Alcotest.test_case "first sample" `Quick test_ewma_first_sample;
          Alcotest.test_case "update" `Quick test_ewma_update;
          Alcotest.test_case "constant stream" `Quick test_ewma_constant_stream;
          Alcotest.test_case "reset" `Quick test_ewma_reset;
          Alcotest.test_case "invalid weight" `Quick test_ewma_invalid_weight;
          QCheck_alcotest.to_alcotest prop_ewma_between_extremes;
        ] );
      ( "welford",
        [
          Alcotest.test_case "basic" `Quick test_welford_basic;
          Alcotest.test_case "empty" `Quick test_welford_empty;
          Alcotest.test_case "single" `Quick test_welford_single;
          QCheck_alcotest.to_alcotest prop_welford_mean_bounds;
        ] );
      ( "time_avg",
        [
          Alcotest.test_case "constant" `Quick test_time_avg_constant;
          Alcotest.test_case "step" `Quick test_time_avg_step;
          Alcotest.test_case "weighted" `Quick test_time_avg_weighted;
          Alcotest.test_case "zero span" `Quick test_time_avg_zero_span;
          Alcotest.test_case "backwards rejected" `Quick test_time_avg_backwards_rejected;
          Alcotest.test_case "reset" `Quick test_time_avg_reset;
        ] );
      ( "density",
        [
          Alcotest.test_case "basic" `Quick test_density_basic;
          Alcotest.test_case "clamping" `Quick test_density_clamping;
          Alcotest.test_case "centroid" `Quick test_density_centroid;
          Alcotest.test_case "mass within" `Quick test_density_mass_within;
          Alcotest.test_case "empty centroid" `Quick test_density_empty_centroid;
        ] );
      ( "quantile",
        [
          Alcotest.test_case "basic" `Quick test_quantile_basic;
          Alcotest.test_case "mean" `Quick test_quantile_mean;
          Alcotest.test_case "empty" `Quick test_quantile_empty;
          Alcotest.test_case "add after sort" `Quick test_quantile_add_after_sort;
          QCheck_alcotest.to_alcotest prop_quantile_sorted;
        ] );
    ]
