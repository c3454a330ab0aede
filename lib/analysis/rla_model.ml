let check_p name p =
  if p < 0.0 || p >= 1.0 then
    invalid_arg (name ^ ": probability out of range")

let two_receiver_window ~p1 ~p2 =
  check_p "Rla_model.two_receiver_window" p1;
  check_p "Rla_model.two_receiver_window" p2;
  if p1 +. p2 <= 0.0 then
    invalid_arg "Rla_model.two_receiver_window: both probabilities zero";
  let num = 4.0 *. (1.0 -. (0.5 *. (p1 +. p2)) +. (0.25 *. p1 *. p2)) in
  let den = p1 +. p2 -. (0.25 *. p1 *. p2) in
  sqrt (num /. den)

(* Enumerate the outcome distribution of one packet: each receiver i
   signals independently w.p. ps.(i); each signal independently causes
   a halving w.p. 1/n.  With K halvings the window multiplies by 2^-K;
   with K = 0 it gains 1/w.  n <= ~30 in the paper, so enumerating the
   number of signals j (not the subsets) is exact for equal ps and an
   excellent approximation otherwise; we enumerate subsets for n <= 12
   and fall back to a signal-count binomial mixture above that. *)

let binomial_pmf n k p =
  let rec choose n k =
    if k = 0 || k = n then 1.0
    else choose (n - 1) (k - 1) *. float_of_int n /. float_of_int k
  in
  choose n k *. (p ** float_of_int k) *. ((1.0 -. p) ** float_of_int (n - k))

(* Distribution of the number of signals J for independent
   heterogeneous ps: dynamic program over receivers. *)
let signal_count_dist ps =
  let n = Array.length ps in
  let dist = Array.make (n + 1) 0.0 in
  dist.(0) <- 1.0;
  Array.iter
    (fun p ->
      for j = n downto 1 do
        dist.(j) <- (dist.(j) *. (1.0 -. p)) +. (dist.(j - 1) *. p)
      done;
      dist.(0) <- dist.(0) *. (1.0 -. p))
    ps;
  dist

let drift_of_cut_dist ~cut_dist w =
  (* cut_dist.(k) = probability of exactly k halvings for one packet. *)
  let d = ref (cut_dist.(0) /. w) in
  for k = 1 to Array.length cut_dist - 1 do
    let shrink = 1.0 -. (1.0 /. (2.0 ** float_of_int k)) in
    d := !d -. (cut_dist.(k) *. shrink *. w)
  done;
  !d

let cut_dist_independent ps =
  let n = Array.length ps in
  if n = 0 then invalid_arg "Rla_model: empty receiver set";
  Array.iter (check_p "Rla_model.drift_independent") ps;
  let jdist = signal_count_dist ps in
  let q = 1.0 /. float_of_int n in
  let cuts = Array.make (n + 1) 0.0 in
  for j = 0 to n do
    if jdist.(j) > 0.0 then
      for k = 0 to j do
        cuts.(k) <- cuts.(k) +. (jdist.(j) *. binomial_pmf j k q)
      done
  done;
  cuts

let cut_dist_common ~n ~p =
  if n <= 0 then invalid_arg "Rla_model: n must be positive";
  check_p "Rla_model.drift_common" p;
  (* With probability p all n receivers signal at once; the cut count
     is then Binomial(n, 1/n); otherwise no signal. *)
  let q = 1.0 /. float_of_int n in
  let cuts = Array.make (n + 1) 0.0 in
  for k = 0 to n do
    cuts.(k) <- p *. binomial_pmf n k q
  done;
  cuts.(0) <- cuts.(0) +. (1.0 -. p);
  cuts

let drift_common ~n ~p w =
  if w <= 0.0 then invalid_arg "Rla_model.drift_common: bad window";
  drift_of_cut_dist ~cut_dist:(cut_dist_common ~n ~p) w

(* Continuous-time version of [drift_common] for the mean-field
   solver: packets depart at rate w / rtt, each contributing the
   per-packet drift.  Uses the exact closed form of the cut-count
   expectation so the cost is O(1) in n (the solver targets n in the
   millions, where materializing the Binomial(n, 1/n) cut distribution
   would dominate): with K ~ Binomial(n, 1/n),
     P(K = 0)  = (1 - 1/n)^n
     E[2^-K]   = (1 - 1/(2n))^n
   so the per-packet drift is
     (1 - p (1 - P(K=0))) / w  -  p (1 - E[2^-K]) w.
   Clamps p just below 1 so RED profiles that saturate remain
   integrable. *)
let drift_rate_common ~n ~p ~rtt w =
  if n <= 0 then invalid_arg "Rla_model.drift_rate_common: bad n";
  if rtt <= 0.0 then invalid_arg "Rla_model.drift_rate_common: bad rtt";
  if w <= 0.0 then invalid_arg "Rla_model.drift_rate_common: bad window";
  if Float.is_nan p || p < 0.0 then
    invalid_arg "Rla_model.drift_rate_common: bad probability";
  let p = Float.min p (1.0 -. 1e-9) in
  let nf = float_of_int n in
  let b0 = (1.0 -. (1.0 /. nf)) ** nf in
  let shrink = 1.0 -. ((1.0 -. (1.0 /. (2.0 *. nf))) ** nf) in
  ((1.0 -. (p *. (1.0 -. b0))) -. (p *. shrink *. w *. w)) /. rtt

let bisect_zero f =
  (* Drift is positive for small w and negative for large w. *)
  let lo = ref 1e-6 and hi = ref 1.0 in
  while f !hi > 0.0 do
    hi := !hi *. 2.0;
    if !hi > 1e9 then invalid_arg "Rla_model: drift has no zero"
  done;
  for _ = 1 to 200 do
    let mid = 0.5 *. (!lo +. !hi) in
    if f mid > 0.0 then lo := mid else hi := mid
  done;
  0.5 *. (!lo +. !hi)

let pa_window_independent ~ps =
  let cut_dist = cut_dist_independent ps in
  bisect_zero (fun w -> drift_of_cut_dist ~cut_dist w)

let pa_window_common ~n ~p =
  let cut_dist = cut_dist_common ~n ~p in
  bisect_zero (fun w -> drift_of_cut_dist ~cut_dist w)

let proposition_bounds ~n ~p_max =
  if n <= 0 then invalid_arg "Rla_model.proposition_bounds: bad n";
  check_p "Rla_model.proposition_bounds" p_max;
  if p_max = 0.0 then invalid_arg "Rla_model.proposition_bounds: p_max zero";
  let tcp = sqrt (2.0 *. (1.0 -. p_max)) /. sqrt p_max in
  (tcp, sqrt (float_of_int n) *. tcp)

let satisfies_proposition ~n ~ps ~window =
  let p_max = Array.fold_left Stdlib.max 0.0 ps in
  let lo, hi = proposition_bounds ~n ~p_max in
  window > lo && window < hi

let min_ratio_for_upper_bound p1 =
  check_p "Rla_model.min_ratio_for_upper_bound" p1;
  p1 /. (2.0 -. (1.5 *. p1))

let window_ratio_to_tcp ~ps =
  let p_max = Array.fold_left Stdlib.max 0.0 ps in
  pa_window_independent ~ps /. Tcp_model.pa_window p_max

let equal_congestion_ratio ~n ~p =
  if n <= 0 then invalid_arg "Rla_model.equal_congestion_ratio: bad n";
  window_ratio_to_tcp ~ps:(Array.make n p)

let skewed_congestion_ratio ~n ~p_max ~eta =
  if n <= 0 then invalid_arg "Rla_model.skewed_congestion_ratio: bad n";
  if eta <= 1.0 then invalid_arg "Rla_model.skewed_congestion_ratio: bad eta";
  let ps = Array.make n (p_max /. eta) in
  ps.(0) <- p_max;
  window_ratio_to_tcp ~ps

let sample_cuts rng ~cut_dist =
  let u = Sim.Rng.uniform rng in
  let rec pick k acc =
    if k >= Array.length cut_dist - 1 then k
    else begin
      let acc = acc +. cut_dist.(k) in
      if u < acc then k else pick (k + 1) acc
    end
  in
  pick 0 0.0

let simulate_with ~rng ~cut_dist ~steps =
  if steps <= 0 then invalid_arg "Rla_model.simulate: bad steps";
  let w = ref 10.0 in
  let acc = ref 0.0 in
  for _ = 1 to steps do
    let k = sample_cuts rng ~cut_dist in
    if k = 0 then w := !w +. (1.0 /. !w)
    else w := Stdlib.max 1.0 (!w /. (2.0 ** float_of_int k));
    acc := !acc +. !w
  done;
  !acc /. float_of_int steps

let simulate_window ~rng ~ps ~steps =
  simulate_with ~rng ~cut_dist:(cut_dist_independent ps) ~steps

module For_testing = struct
  let two_receiver_window = two_receiver_window
  let drift_common = drift_common
  let pa_window_common = pa_window_common
  let min_ratio_for_upper_bound = min_ratio_for_upper_bound
  let window_ratio_to_tcp = window_ratio_to_tcp
  let equal_congestion_ratio = equal_congestion_ratio
  let skewed_congestion_ratio = skewed_congestion_ratio
end
