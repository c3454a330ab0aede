let check_close ?(eps = 1e-9) msg expected actual =
  if Float.abs (expected -. actual) > eps then
    Alcotest.failf "%s: expected %.9f, got %.9f" msg expected actual

(* Integrate the window transport of a single class at a constant drop
   probability until stationary; returns the histogram.  rtt = 1 so
   growth = 1 - p and the halving coefficient is p. *)
let transport_steady ~bins ~p ~w_max ~t_end =
  let h = w_max /. float_of_int bins in
  let m = Meanfield.Dist.init_delta ~bins ~h 2.0 in
  let k1 = Array.make bins 0.0 in
  let k2 = Array.make bins 0.0 in
  let tmp = Array.make bins 0.0 in
  let growth = 1.0 -. p and halve_coeff = p in
  let dt = 0.4 /. Float.max w_max (float_of_int bins /. w_max) in
  let steps = int_of_float (t_end /. dt) in
  for _ = 1 to steps do
    (* Midpoint rule is plenty at these step sizes. *)
    Array.fill k1 0 bins 0.0;
    Meanfield.Dist.deriv ~h ~growth ~halve_coeff m k1;
    for i = 0 to bins - 1 do
      tmp.(i) <- m.(i) +. (0.5 *. dt *. k1.(i))
    done;
    Array.fill k2 0 bins 0.0;
    Meanfield.Dist.deriv ~h ~growth ~halve_coeff tmp k2;
    for i = 0 to bins - 1 do
      m.(i) <- m.(i) +. (dt *. k2.(i))
    done;
    Meanfield.Dist.renormalize m
  done;
  (m, h)

let test_dist_mass_conserved () =
  let bins = 32 in
  let h = 0.5 in
  let m = Meanfield.Dist.init_delta ~bins ~h 7.3 in
  check_close "initial mass" 1.0 (Array.fold_left ( +. ) 0.0 m);
  check_close "initial mean" 7.3 (Meanfield.Dist.mean ~h m);
  let dm = Array.make bins 0.0 in
  Meanfield.Dist.deriv ~h ~growth:0.9 ~halve_coeff:0.2 m dm;
  check_close "derivative sums to zero" 0.0 (Array.fold_left ( +. ) 0.0 dm)

let test_transport_matches_pa_window () =
  (* Deterministic spot check at p = 0.1: the stationary rms window
     must approach pa_window 0.1 = sqrt(18) ~ 4.2426. *)
  let p = 0.1 in
  let pa = Analysis.Tcp_model.pa_window p in
  let w_max = 4.0 *. pa in
  let m, h = transport_steady ~bins:96 ~p ~w_max ~t_end:300.0 in
  let rms = Meanfield.Dist.rms ~h m in
  if Float.abs (rms -. pa) > 0.05 *. pa then
    Alcotest.failf "rms %.4f vs pa_window %.4f" rms pa

let qcheck_refinement =
  QCheck.Test.make ~count:20 ~name:"transport rms converges to pa_window"
    (QCheck.float_range 0.02 0.3)
    (fun p ->
      let pa = Analysis.Tcp_model.pa_window p in
      let w_max = 4.0 *. pa in
      let err bins =
        let m, h = transport_steady ~bins ~p ~w_max ~t_end:300.0 in
        Float.abs (Meanfield.Dist.rms ~h m -. pa)
      in
      let coarse = err 24 and fine = err 96 in
      (* Refining the discretization shrinks the error (slack for
         already-converged cases) and the fine error is within 5%. *)
      fine <= (0.5 *. coarse) +. (0.005 *. pa) && fine <= 0.05 *. pa)

let small_params () =
  Meanfield.Params.make ~capacity:500.0 ~buffer:60.0
    ~rla:{ Meanfield.Params.receivers = 4; rtt = 0.12 }
    ~bins:48 ~t_max:12.0 ~settle:4.0
    [ { Meanfield.Params.flows = 4; rtt = 0.12 } ]

let test_solver_deterministic () =
  let run () =
    let r = Meanfield.Solver.run (small_params ()) in
    Meanfield.Trajectory.to_csv_string r.Meanfield.Solver.trajectory
  in
  let a = run () and b = run () in
  Alcotest.(check bool) "byte-identical trajectories" true (String.equal a b)

let test_solver_congested_operating_point () =
  let r = Meanfield.Solver.run (small_params ()) in
  (* 4 TCP flows + RLA over 500 pkt/s must congest the RED queue. *)
  if r.Meanfield.Solver.drop_mean <= 0.001 then
    Alcotest.failf "expected congestion, drop %.5f" r.Meanfield.Solver.drop_mean;
  if r.Meanfield.Solver.queue_mean <= 1.0 then
    Alcotest.failf "expected queue, got %.3f" r.Meanfield.Solver.queue_mean;
  let ratio = r.Meanfield.Solver.fairness_ratio in
  if Float.is_nan ratio || ratio <= 0.0 then
    Alcotest.failf "bad fairness ratio %.3f" ratio

let test_stability_uncongested () =
  (* One slow flow over a huge link: no congestion, trivially stable. *)
  let p =
    Meanfield.Params.make ~capacity:1e6 ~buffer:1e5
      [ { Meanfield.Params.flows = 1; rtt = 0.1 } ]
  in
  let s = Meanfield.Stability.evaluate p in
  Alcotest.(check bool) "uncongested" false s.Meanfield.Stability.congested;
  Alcotest.(check bool) "stable" true s.Meanfield.Stability.stable

let test_stability_congested_fixed_point () =
  let s = Meanfield.Stability.evaluate (small_params ()) in
  Alcotest.(check bool) "congested" true s.Meanfield.Stability.congested;
  let fp = s.Meanfield.Stability.fp in
  if fp.Meanfield.Stability.drop <= 0.0 || fp.Meanfield.Stability.drop >= 1.0
  then Alcotest.failf "bad fixed-point drop %.4f" fp.Meanfield.Stability.drop;
  (* At the fixed point the accepted rate balances capacity, so the
     arrival rate must exceed capacity by exactly the drop factor. *)
  check_close ~eps:1.0 "lambda = C/(1-p)"
    (500.0 /. (1.0 -. fp.Meanfield.Stability.drop))
    fp.Meanfield.Stability.lambda

let test_regime_classify_agreement () =
  (* A gentle point (small w_q) should be steady; the solver and the
     closed-form criterion should agree there. *)
  let c =
    Meanfield.Regime.classify ~t_max:15.0
      { Meanfield.Regime.w_q = 0.001; max_p = 0.1; n = 8 }
  in
  Alcotest.(check bool) "solver and criterion agree" true
    c.Meanfield.Regime.agree

let test_regime_large_n_runs () =
  (* n = 1M must classify quickly: the solver cost is n-independent. *)
  let c =
    Meanfield.Regime.classify ~t_max:10.0
      { Meanfield.Regime.w_q = 0.002; max_p = 0.1; n = 1_000_000 }
  in
  if Float.is_nan c.Meanfield.Regime.queue_mean then
    Alcotest.fail "NaN queue at n = 1M"

let () =
  Alcotest.run "meanfield"
    [
      ( "dist",
        [
          Alcotest.test_case "mass conservation" `Quick
            test_dist_mass_conserved;
          Alcotest.test_case "transport matches pa_window" `Slow
            test_transport_matches_pa_window;
          QCheck_alcotest.to_alcotest qcheck_refinement;
        ] );
      ( "solver",
        [
          Alcotest.test_case "deterministic" `Quick test_solver_deterministic;
          Alcotest.test_case "congested operating point" `Quick
            test_solver_congested_operating_point;
        ] );
      ( "stability",
        [
          Alcotest.test_case "uncongested" `Quick test_stability_uncongested;
          Alcotest.test_case "congested fixed point" `Quick
            test_stability_congested_fixed_point;
        ] );
      ( "regime",
        [
          Alcotest.test_case "classify agreement" `Quick
            test_regime_classify_agreement;
          Alcotest.test_case "large n" `Quick test_regime_large_n_runs;
        ] );
    ]
