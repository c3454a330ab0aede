(* Tests for the analytical models: TCP PA window, RLA drift analysis,
   and the two-session particle model. *)

let check_close msg ~tol expected actual =
  Alcotest.(check (float tol)) msg expected actual

(* ------------------------------------------------------------------ *)
(* Tcp_model                                                          *)
(* ------------------------------------------------------------------ *)

let test_pa_window_values () =
  (* W = sqrt(2(1-p)/p); at p=0.02: sqrt(98) = 9.899... *)
  check_close "p=0.02" ~tol:1e-6 9.899494936611665
    (Analysis.Tcp_model.pa_window 0.02);
  check_close "p=0.5" ~tol:1e-6 (sqrt 2.0) (Analysis.Tcp_model.pa_window 0.5)

let test_pa_window_approx () =
  let p = 0.001 in
  let exact = Analysis.Tcp_model.pa_window p in
  let approx = Analysis.Tcp_model.For_testing.pa_window_approx p in
  Alcotest.(check bool) "approx close for small p" true
    (abs_float (exact -. approx) /. exact < 0.001)

let test_pa_window_invalid () =
  Alcotest.(check bool) "p=0 rejected" true
    (try ignore (Analysis.Tcp_model.pa_window 0.0); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "p=1 rejected" true
    (try ignore (Analysis.Tcp_model.pa_window 1.0); false
     with Invalid_argument _ -> true)

let test_pa_window_clamped_total () =
  let open Analysis.Tcp_model in
  check_close "interior untouched" ~tol:1e-12 (pa_window 0.02)
    (pa_window_clamped 0.02);
  check_close "p=0 clamps to eps" ~tol:1e-3
    (pa_window 1e-9)
    (pa_window_clamped 0.0);
  check_close "p=1 clamps to 1-eps" ~tol:1e-12
    (pa_window (1.0 -. 1e-9))
    (pa_window_clamped 1.0);
  Alcotest.(check bool) "finite at 0" true (Float.is_finite (pa_window_clamped 0.0));
  Alcotest.(check bool) "positive at 1" true (pa_window_clamped 1.0 > 0.0);
  Alcotest.(check bool) "monotone across the clamp" true
    (pa_window_clamped (-5.0) >= pa_window_clamped 0.5
    && pa_window_clamped 0.5 >= pa_window_clamped 5.0);
  Alcotest.(check bool) "NaN rejected" true
    (try ignore (pa_window_clamped Float.nan); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "eps >= 0.5 rejected" true
    (try ignore (pa_window_clamped ~eps:0.7 0.5); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "eps = 0 rejected" true
    (try ignore (pa_window_clamped ~eps:0.0 0.5); false
     with Invalid_argument _ -> true)

let test_drift_zero_at_pa_window () =
  List.iter
    (fun p ->
      let w = Analysis.Tcp_model.pa_window p in
      check_close (Printf.sprintf "drift zero at p=%.3f" p) ~tol:1e-9 0.0
        (Analysis.Tcp_model.For_testing.drift ~p w))
    [ 0.001; 0.01; 0.05 ]

let test_drift_signs () =
  let p = 0.01 in
  let w = Analysis.Tcp_model.pa_window p in
  Alcotest.(check bool) "positive below" true
    (Analysis.Tcp_model.For_testing.drift ~p (w /. 2.0) > 0.0);
  Alcotest.(check bool) "negative above" true
    (Analysis.Tcp_model.For_testing.drift ~p (w *. 2.0) < 0.0)

let test_mahdavi_floyd () =
  (* 1.3/(0.1*sqrt(0.01)) = 130. *)
  check_close "formula" ~tol:1e-9 130.0
    (Analysis.Tcp_model.For_testing.mahdavi_floyd_rate ~rtt:0.1 ~p:0.01);
  (* PA-window throughput is within ~10% of Mahdavi-Floyd at small p. *)
  let a = Analysis.Tcp_model.For_testing.throughput ~rtt:0.1 ~p:0.01 in
  let b = Analysis.Tcp_model.For_testing.mahdavi_floyd_rate ~rtt:0.1 ~p:0.01 in
  Alcotest.(check bool) "similar formulas" true (abs_float (a -. b) /. b < 0.1)

let test_inverse_window () =
  List.iter
    (fun p ->
      let w = Analysis.Tcp_model.pa_window p in
      check_close
        (Printf.sprintf "inverse at p=%.3f" p)
        ~tol:1e-9 p
        (Analysis.Tcp_model.For_testing.congestion_probability_for_window w))
    [ 0.005; 0.02; 0.05 ]

let test_mc_agrees_with_model () =
  let rng = Sim.Rng.create 4 in
  let p = 0.01 in
  let mc = Analysis.Tcp_model.For_testing.simulate_pa_window ~rng ~p ~steps:500_000 in
  let model = Analysis.Tcp_model.pa_window p in
  (* The sample mean sits slightly above the PA window; 15% is ample. *)
  Alcotest.(check bool)
    (Printf.sprintf "mc %.2f vs model %.2f" mc model)
    true
    (abs_float (mc -. model) /. model < 0.15)

(* ------------------------------------------------------------------ *)
(* Rla_model                                                          *)
(* ------------------------------------------------------------------ *)

let test_two_receiver_closed_form () =
  (* Equation 3 with p1 = p2 = p: W^2 = 4(1-p+p^2/4)/(2p - p^2/4). *)
  let p = 0.01 in
  let w = Analysis.Rla_model.For_testing.two_receiver_window ~p1:p ~p2:p in
  let expected =
    sqrt (4.0 *. (1.0 -. p +. (p *. p /. 4.0)) /. ((2.0 *. p) -. (p *. p /. 4.0)))
  in
  check_close "closed form" ~tol:1e-9 expected w

let test_two_receiver_matches_drift_zero () =
  List.iter
    (fun (p1, p2) ->
      let closed = Analysis.Rla_model.For_testing.two_receiver_window ~p1 ~p2 in
      let numeric = Analysis.Rla_model.pa_window_independent ~ps:[| p1; p2 |] in
      Alcotest.(check bool)
        (Printf.sprintf "closed %.3f vs numeric %.3f at (%.3f, %.3f)" closed
           numeric p1 p2)
        true
        (abs_float (closed -. numeric) /. closed < 0.02))
    [ (0.01, 0.01); (0.02, 0.005); (0.03, 0.03) ]

let test_proposition_lower_bound () =
  (* W always exceeds the TCP window at p_max. *)
  List.iter
    (fun ps ->
      let n = Array.length ps in
      let w = Analysis.Rla_model.pa_window_independent ~ps in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d lower bound" n)
        true
        (Analysis.Rla_model.satisfies_proposition ~n ~ps ~window:w))
    [
      [| 0.01; 0.01 |];
      [| 0.02; 0.01; 0.005 |];
      Array.make 8 0.01;
      Array.make 27 0.02;
      Array.append [| 0.04 |] (Array.make 26 0.004);
    ]

let test_proposition_bounds_shape () =
  let lo, hi = Analysis.Rla_model.proposition_bounds ~n:9 ~p_max:0.02 in
  check_close "lower = tcp window" ~tol:1e-9 (Analysis.Tcp_model.pa_window 0.02) lo;
  check_close "upper = sqrt(n) x lower" ~tol:1e-9 (3.0 *. lo) hi

let test_common_loss_larger_window () =
  (* The Lemma: correlation in losses yields a larger average window
     than independent losses with the same per-receiver probability. *)
  List.iter
    (fun (n, p) ->
      let independent =
        Analysis.Rla_model.pa_window_independent ~ps:(Array.make n p)
      in
      let common = Analysis.Rla_model.For_testing.pa_window_common ~n ~p in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d p=%.3f: common %.2f > independent %.2f" n p
           common independent)
        true
        (common > independent))
    [ (2, 0.01); (4, 0.02); (9, 0.01); (27, 0.01) ]

let test_more_receivers_larger_window () =
  (* Equal congestion everywhere: the window grows (weakly) with n
     because multi-signal packets waste cuts. *)
  let w2 = Analysis.Rla_model.For_testing.pa_window_common ~n:2 ~p:0.02 in
  let w8 = Analysis.Rla_model.For_testing.pa_window_common ~n:8 ~p:0.02 in
  Alcotest.(check bool) "monotone in n for common loss" true (w8 >= w2)

let test_min_ratio_function () =
  check_close "f(0.05)" ~tol:1e-9 (0.05 /. 1.925)
    (Analysis.Rla_model.For_testing.min_ratio_for_upper_bound 0.05);
  (* eta = 20 leaves margin: 1/20 > f(0.05). *)
  Alcotest.(check bool) "eta=20 margin" true
    (0.05 > Analysis.Rla_model.For_testing.min_ratio_for_upper_bound 0.05)

let test_equal_congestion_bounded () =
  (* Section 4.3: with all receivers equally congested the RLA's window
     multiplier over TCP stays small for any n (the paper claims the
     throughput stays within 4x; the window part stays within 2x). *)
  List.iter
    (fun n ->
      let ratio = Analysis.Rla_model.For_testing.equal_congestion_ratio ~n ~p:0.01 in
      Alcotest.(check bool)
        (Printf.sprintf "n=%d ratio %.2f < 2" n ratio)
        true
        (ratio >= 1.0 && ratio < 2.0))
    [ 1; 2; 4; 9; 27; 81 ]

let test_skewed_congestion_grows () =
  (* One truly congested receiver among n: the multiplier grows with n
     (the O(n)-advantage regime) but stays under the sqrt(3n)-ish
     window bound. *)
  let r4 = Analysis.Rla_model.For_testing.skewed_congestion_ratio ~n:4 ~p_max:0.02 ~eta:20.0 in
  let r27 = Analysis.Rla_model.For_testing.skewed_congestion_ratio ~n:27 ~p_max:0.02 ~eta:20.0 in
  Alcotest.(check bool)
    (Printf.sprintf "grows with n (%.2f -> %.2f)" r4 r27)
    true (r27 > r4);
  Alcotest.(check bool) "below the proposition bound" true
    (r27 < sqrt (3.0 *. 27.0))

let test_window_ratio_consistency () =
  let ps = [| 0.02; 0.01; 0.005 |] in
  let direct =
    Analysis.Rla_model.pa_window_independent ~ps
    /. Analysis.Tcp_model.pa_window 0.02
  in
  Alcotest.(check (float 1e-9)) "matches components" direct
    (Analysis.Rla_model.For_testing.window_ratio_to_tcp ~ps)

let test_rla_mc_agrees () =
  let rng = Sim.Rng.create 10 in
  let ps = Array.make 4 0.01 in
  let model = Analysis.Rla_model.pa_window_independent ~ps in
  let mc = Analysis.Rla_model.simulate_window ~rng ~ps ~steps:500_000 in
  Alcotest.(check bool)
    (Printf.sprintf "mc %.2f vs model %.2f" mc model)
    true
    (abs_float (mc -. model) /. model < 0.15)

let test_rla_model_validation () =
  Alcotest.(check bool) "empty ps" true
    (try ignore (Analysis.Rla_model.pa_window_independent ~ps:[||]); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "both zero" true
    (try ignore (Analysis.Rla_model.For_testing.two_receiver_window ~p1:0.0 ~p2:0.0); false
     with Invalid_argument _ -> true)

(* The O(1) closed form used by the mean-field solver must agree with
   the O(n) Binomial cut-distribution drift it replaces: both are
   expectations over K ~ Binomial(n, 1/n) halvings per loss event, so
   drift_rate_common = (w / rtt) * drift_common exactly. *)
let test_drift_rate_common_closed_form () =
  let rtt = 0.1 in
  List.iter
    (fun n ->
      List.iter
        (fun p ->
          List.iter
            (fun w ->
              let per_packet = Analysis.Rla_model.For_testing.drift_common ~n ~p w in
              let expected = w /. rtt *. per_packet in
              let got = Analysis.Rla_model.drift_rate_common ~n ~p ~rtt w in
              let tol = 1e-9 *. Float.max 1.0 (Float.abs expected) in
              check_close
                (Printf.sprintf "n=%d p=%.2f w=%.1f" n p w)
                ~tol expected got)
            [ 2.0; 10.0; 40.0 ])
        [ 0.01; 0.1; 0.5 ])
    [ 1; 2; 4; 8; 32 ];
  (* Zero exactly at the closed-form PA window. *)
  List.iter
    (fun n ->
      let p = 0.02 in
      let w = Analysis.Rla_model.For_testing.pa_window_common ~n ~p in
      check_close (Printf.sprintf "zero at pa_window_common, n=%d" n) ~tol:1e-6
        0.0
        (Analysis.Rla_model.drift_rate_common ~n ~p ~rtt w))
    [ 1; 4; 16 ];
  List.iter
    (fun (name, f) ->
      Alcotest.(check bool) name true
        (try ignore (f ()); false with Invalid_argument _ -> true))
    [
      ("n=0 rejected", fun () -> Analysis.Rla_model.drift_rate_common ~n:0 ~p:0.1 ~rtt 5.0);
      ("bad rtt rejected", fun () -> Analysis.Rla_model.drift_rate_common ~n:4 ~p:0.1 ~rtt:0.0 5.0);
      ("bad w rejected", fun () -> Analysis.Rla_model.drift_rate_common ~n:4 ~p:0.1 ~rtt 0.0);
      ("p<0 rejected", fun () -> Analysis.Rla_model.drift_rate_common ~n:4 ~p:(-0.1) ~rtt 5.0);
    ]

(* ------------------------------------------------------------------ *)
(* Particle                                                           *)
(* ------------------------------------------------------------------ *)

let pipes10 = Analysis.Particle.uniform_pipes ~pipe:10.0 ~n:3

let test_particle_signals_at () =
  Alcotest.(check int) "below pipe" 0 (Analysis.Particle.For_testing.signals_at pipes10 9.9);
  Alcotest.(check int) "at pipe" 3 (Analysis.Particle.For_testing.signals_at pipes10 10.0);
  let multi =
    {
      Analysis.Particle.pipe_sizes = [| 10.0; 20.0 |];
      counts = [| 2; 3 |];
    }
  in
  Alcotest.(check int) "first level" 2 (Analysis.Particle.For_testing.signals_at multi 15.0);
  Alcotest.(check int) "both levels" 5 (Analysis.Particle.For_testing.signals_at multi 25.0)

let test_particle_drift_signs () =
  (* No congestion: both coordinates drift up by 2 per step. *)
  check_close "uncongested drift" ~tol:1e-9 2.0
    (Analysis.Particle.For_testing.drift_at pipes10 ~w:4.0 ~sum:8.0);
  (* Deep congestion with a large window: drift is negative. *)
  Alcotest.(check bool) "congested drift negative" true
    (Analysis.Particle.For_testing.drift_at pipes10 ~w:9.0 ~sum:18.0 < 0.0);
  (* Congested but tiny window: increments beat rare cuts. *)
  Alcotest.(check bool) "small window still grows" true
    (Analysis.Particle.For_testing.drift_at pipes10 ~w:0.5 ~sum:12.0 > 0.0)

let test_particle_fair_point () =
  let fx, fy = Analysis.Particle.For_testing.fair_point pipes10 in
  check_close "x" ~tol:1e-9 5.0 fx;
  check_close "y" ~tol:1e-9 5.0 fy

let test_particle_drift_field_grid () =
  let field =
    Analysis.Particle.drift_field pipes10 ~x_max:10.0 ~y_max:10.0 ~step:2.0
  in
  Alcotest.(check int) "5x5 grid" 25 (List.length field)

let test_particle_simulation_symmetry () =
  let stats =
    Analysis.Particle.simulate ~rng:(Sim.Rng.create 3) pipes10 ~steps:200_000 ()
  in
  let m1 = stats.Analysis.Particle.mean_w1 in
  let m2 = stats.Analysis.Particle.mean_w2 in
  Alcotest.(check bool)
    (Printf.sprintf "means %.2f vs %.2f equal within 5%%" m1 m2)
    true
    (abs_float (m1 -. m2) /. Stdlib.max m1 m2 < 0.05);
  (* The particle hovers near the fair point: each window's mean is in
     a broad band around pipe/2. *)
  Alcotest.(check bool) "mean near fair value" true (m1 > 2.0 && m1 < 8.0)

let test_particle_mass_concentrates () =
  let pipes = Analysis.Particle.uniform_pipes ~pipe:40.0 ~n:27 in
  let stats =
    Analysis.Particle.simulate ~rng:(Sim.Rng.create 5) pipes ~steps:100_000 ()
  in
  Alcotest.(check bool)
    (Printf.sprintf "mass near fair point %.2f > 0.25"
       stats.Analysis.Particle.mass_near_fair_point)
    true
    (stats.Analysis.Particle.mass_near_fair_point > 0.25)

let test_particle_validation () =
  Alcotest.(check bool) "bad pipes" true
    (try ignore (Analysis.Particle.uniform_pipes ~pipe:0.0 ~n:3); false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "descending sizes rejected" true
    (try
       ignore
         (Analysis.Particle.For_testing.signals_at
            { Analysis.Particle.pipe_sizes = [| 10.0; 5.0 |]; counts = [| 1; 1 |] }
            7.0);
       false
     with Invalid_argument _ -> true)

let () =
  Alcotest.run "analysis"
    [
      ( "tcp_model",
        [
          Alcotest.test_case "pa window values" `Quick test_pa_window_values;
          Alcotest.test_case "approximation" `Quick test_pa_window_approx;
          Alcotest.test_case "invalid p" `Quick test_pa_window_invalid;
          Alcotest.test_case "clamped total" `Quick test_pa_window_clamped_total;
          Alcotest.test_case "drift zero" `Quick test_drift_zero_at_pa_window;
          Alcotest.test_case "drift signs" `Quick test_drift_signs;
          Alcotest.test_case "mahdavi-floyd" `Quick test_mahdavi_floyd;
          Alcotest.test_case "inverse" `Quick test_inverse_window;
          Alcotest.test_case "monte carlo" `Slow test_mc_agrees_with_model;
        ] );
      ( "rla_model",
        [
          Alcotest.test_case "closed form" `Quick test_two_receiver_closed_form;
          Alcotest.test_case "matches drift zero" `Quick
            test_two_receiver_matches_drift_zero;
          Alcotest.test_case "proposition lower bound" `Quick
            test_proposition_lower_bound;
          Alcotest.test_case "bounds shape" `Quick test_proposition_bounds_shape;
          Alcotest.test_case "lemma: correlation grows window" `Quick
            test_common_loss_larger_window;
          Alcotest.test_case "monotone in n" `Quick test_more_receivers_larger_window;
          Alcotest.test_case "ratio function" `Quick test_min_ratio_function;
          Alcotest.test_case "monte carlo" `Slow test_rla_mc_agrees;
          Alcotest.test_case "sec 4.3 equal congestion" `Quick
            test_equal_congestion_bounded;
          Alcotest.test_case "sec 4.3 skewed congestion" `Quick
            test_skewed_congestion_grows;
          Alcotest.test_case "window ratio consistency" `Quick
            test_window_ratio_consistency;
          Alcotest.test_case "validation" `Quick test_rla_model_validation;
          Alcotest.test_case "closed-form rate" `Quick
            test_drift_rate_common_closed_form;
        ] );
      ( "particle",
        [
          Alcotest.test_case "signals_at" `Quick test_particle_signals_at;
          Alcotest.test_case "drift signs" `Quick test_particle_drift_signs;
          Alcotest.test_case "fair point" `Quick test_particle_fair_point;
          Alcotest.test_case "drift field grid" `Quick test_particle_drift_field_grid;
          Alcotest.test_case "simulation symmetry" `Slow
            test_particle_simulation_symmetry;
          Alcotest.test_case "mass concentrates" `Slow test_particle_mass_concentrates;
          Alcotest.test_case "validation" `Quick test_particle_validation;
        ] );
    ]
