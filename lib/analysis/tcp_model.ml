let check_p name p =
  if p <= 0.0 || p >= 1.0 then
    invalid_arg (name ^ ": congestion probability must lie in (0, 1)")

let pa_window p =
  check_p "Tcp_model.pa_window" p;
  sqrt (2.0 *. (1.0 -. p)) /. sqrt p

let default_domain_eps = 1e-9

let pa_window_clamped ?(eps = default_domain_eps) p =
  if Float.is_nan p then invalid_arg "Tcp_model.pa_window_clamped: NaN";
  if not (eps > 0.0 && eps < 0.5) then
    invalid_arg "Tcp_model.pa_window_clamped: eps must lie in (0, 0.5)";
  let p = Float.min (1.0 -. eps) (Float.max eps p) in
  sqrt (2.0 *. (1.0 -. p)) /. sqrt p

let pa_window_approx p =
  check_p "Tcp_model.pa_window_approx" p;
  sqrt 2.0 /. sqrt p

let drift ~p w =
  check_p "Tcp_model.drift" p;
  if w <= 0.0 then invalid_arg "Tcp_model.drift: non-positive window";
  ((1.0 -. p) /. w) -. (p *. w /. 2.0)

let mahdavi_floyd_rate ~rtt ~p =
  check_p "Tcp_model.mahdavi_floyd_rate" p;
  if rtt <= 0.0 then invalid_arg "Tcp_model.mahdavi_floyd_rate: bad rtt";
  1.3 /. (rtt *. sqrt p)

let throughput ~rtt ~p =
  if rtt <= 0.0 then invalid_arg "Tcp_model.throughput: bad rtt";
  pa_window p /. rtt

let congestion_probability_for_window w =
  if w <= 0.0 then
    invalid_arg "Tcp_model.congestion_probability_for_window: bad window";
  2.0 /. ((w *. w) +. 2.0)

let simulate_pa_window ~rng ~p ~steps =
  check_p "Tcp_model.simulate_pa_window" p;
  if steps <= 0 then invalid_arg "Tcp_model.simulate_pa_window: bad steps";
  let w = ref (pa_window p) in
  let acc = ref 0.0 in
  for _ = 1 to steps do
    if Sim.Rng.bernoulli rng p then w := Stdlib.max 1.0 (!w /. 2.0)
    else w := !w +. (1.0 /. !w);
    acc := !acc +. !w
  done;
  !acc /. float_of_int steps

module For_testing = struct
  let pa_window_approx = pa_window_approx
  let drift = drift
  let mahdavi_floyd_rate = mahdavi_floyd_rate
  let throughput = throughput
  let congestion_probability_for_window = congestion_probability_for_window
  let simulate_pa_window = simulate_pa_window
end
