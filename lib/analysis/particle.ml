type pipes = { pipe_sizes : float array; counts : int array }

let validate p =
  let k = Array.length p.pipe_sizes in
  if k = 0 || Array.length p.counts <> k then
    invalid_arg "Particle: malformed pipes";
  for i = 0 to k - 1 do
    if p.counts.(i) <= 0 then invalid_arg "Particle: non-positive count";
    if i > 0 && p.pipe_sizes.(i) <= p.pipe_sizes.(i - 1) then
      invalid_arg "Particle: pipe sizes must ascend"
  done

let uniform_pipes ~pipe ~n =
  if pipe <= 0.0 || n <= 0 then invalid_arg "Particle.uniform_pipes";
  { pipe_sizes = [| pipe |]; counts = [| n |] }

let total_receivers p = Array.fold_left ( + ) 0 p.counts

let signals_at p sum =
  validate p;
  let m = ref 0 in
  Array.iteri
    (fun i size -> if sum >= size then m := !m + p.counts.(i))
    p.pipe_sizes;
  !m

let binomial_pmf n k q =
  let rec choose n k =
    if k = 0 || k = n then 1.0
    else choose (n - 1) (k - 1) *. float_of_int n /. float_of_int k
  in
  choose n k *. (q ** float_of_int k) *. ((1.0 -. q) ** float_of_int (n - k))

(* Per-step distribution of halvings for one sender given m signals and
   pthresh = 1/n_total. *)
let cut_dist p m =
  let n_total = total_receivers p in
  let q = 1.0 /. float_of_int n_total in
  Array.init (m + 1) (fun k -> binomial_pmf m k q)

let drift_at p ~w ~sum =
  validate p;
  if w <= 0.0 then invalid_arg "Particle.drift_at: bad window";
  let m = signals_at p sum in
  if m = 0 then 2.0
  else begin
    let dist = cut_dist p m in
    let d = ref (2.0 *. dist.(0)) in
    for k = 1 to m do
      let shrink = 1.0 -. (1.0 /. (2.0 ** float_of_int k)) in
      d := !d -. (dist.(k) *. shrink *. w)
    done;
    !d
  end

type field_point = { x : float; y : float; dx : float; dy : float }

let drift_field p ~x_max ~y_max ~step =
  validate p;
  if step <= 0.0 then invalid_arg "Particle.drift_field: bad step";
  let points = ref [] in
  let x = ref step in
  while !x <= x_max do
    let y = ref step in
    while !y <= y_max do
      let sum = !x +. !y in
      points :=
        {
          x = !x;
          y = !y;
          dx = drift_at p ~w:!x ~sum;
          dy = drift_at p ~w:!y ~sum;
        }
        :: !points;
      y := !y +. step
    done;
    x := !x +. step
  done;
  List.rev !points

let fair_point p =
  validate p;
  let smallest = p.pipe_sizes.(0) in
  (smallest /. 2.0, smallest /. 2.0)

type run_stats = {
  density : Stats.Density.t;
  mean_w1 : float;
  mean_w2 : float;
  mean_abs_diff : float;
  centroid : float * float;
  mass_near_fair_point : float;
}

let step_window rng p m w =
  if m = 0 then w +. 2.0
  else begin
    let n_total = total_receivers p in
    let q = 1.0 /. float_of_int n_total in
    (* Sample the number of accepted congestion signals directly. *)
    let k = ref 0 in
    for _ = 1 to m do
      if Sim.Rng.bernoulli rng q then incr k
    done;
    if !k = 0 then w +. 2.0
    else Stdlib.max 1.0 (w /. (2.0 ** float_of_int !k))
  end

let simulate ~rng p ~steps ?(cells = 40) ?w_max () =
  validate p;
  if steps <= 0 then invalid_arg "Particle.simulate: bad steps";
  let max_pipe = p.pipe_sizes.(Array.length p.pipe_sizes - 1) in
  let w_max = match w_max with Some w -> w | None -> max_pipe *. 1.2 in
  let density =
    Stats.Density.create ~x_lo:0.0 ~x_hi:w_max ~y_lo:0.0 ~y_hi:w_max ~cells
  in
  let w1 = ref 1.0 and w2 = ref 1.0 in
  let sum1 = ref 0.0 and sum2 = ref 0.0 and sum_diff = ref 0.0 in
  for _ = 1 to steps do
    let m = signals_at p (!w1 +. !w2) in
    let next1 = step_window rng p m !w1 in
    let next2 = step_window rng p m !w2 in
    w1 := next1;
    w2 := next2;
    Stats.Density.add density ~x:!w1 ~y:!w2;
    sum1 := !sum1 +. !w1;
    sum2 := !sum2 +. !w2;
    sum_diff := !sum_diff +. abs_float (!w1 -. !w2)
  done;
  let n = float_of_int steps in
  let fx, fy = fair_point p in
  {
    density;
    mean_w1 = !sum1 /. n;
    mean_w2 = !sum2 /. n;
    mean_abs_diff = !sum_diff /. n;
    centroid = Stats.Density.centroid density;
    mass_near_fair_point =
      Stats.Density.mass_within density ~cx:fx ~cy:fy
        ~radius:(0.25 *. Stdlib.max fx 1.0 *. 2.0);
  }

module For_testing = struct
  let signals_at = signals_at
  let drift_at = drift_at
  let fair_point = fair_point
end
