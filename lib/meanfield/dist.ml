(* Discretized window distribution of one TCP class: [m.(i)] is the
   probability mass at window w_i = (i + 0.5) * h.  The transport
   equation combines upward advection (additive increase at velocity
   (1-p)/rtt) with a halving kernel (multiplicative decrease at rate
   p w / rtt moving mass from w to w/2).  Every operator below
   conserves total mass exactly. *)

let center ~h i = (float_of_int i +. 0.5) *. h

(* Place unit mass at window [w], split linearly between the two
   bracketing bin centers so the histogram mean equals [w]. *)
let init_delta ~bins ~h w =
  let m = Array.make bins 0.0 in
  let f = (w /. h) -. 0.5 in
  if f <= 0.0 then m.(0) <- 1.0
  else if f >= float_of_int (bins - 1) then m.(bins - 1) <- 1.0
  else begin
    let lo = int_of_float f in
    let frac = f -. float_of_int lo in
    m.(lo) <- 1.0 -. frac;
    m.(lo + 1) <- frac
  end;
  m

let mean ~h m =
  let acc = ref 0.0 in
  Array.iteri (fun i mi -> acc := !acc +. (mi *. center ~h i)) m;
  !acc

let rms ~h m =
  let acc = ref 0.0 in
  Array.iteri
    (fun i mi ->
      let w = center ~h i in
      acc := !acc +. (mi *. w *. w))
    m;
  sqrt (Float.max 0.0 !acc)

(* Accumulate the transport derivative into [dm] (caller zeroes it).
   [growth] is the additive-increase velocity (1-p)/rtt in windows per
   second; [halve_coeff] is p/rtt, so bin i loses mass at rate
   halve_coeff * w_i and deposits it at w_i / 2.

   Advection is first-order upwind; the top bin has no outflow, so
   mass that would exceed w_max accumulates there instead of leaking
   (it still halves, which is what keeps the ceiling honest).  The
   halving gain is split linearly between the two bins bracketing
   w_i / 2; bin 0's halving is a no-op (target below the first
   center), which doubles as the w >= 1 window floor. *)
let deriv ~h ~growth ~halve_coeff m dm =
  let bins = Array.length m in
  let adv = growth /. h in
  (* Upwind advection. *)
  dm.(0) <- dm.(0) -. (adv *. m.(0));
  for i = 1 to bins - 2 do
    dm.(i) <- dm.(i) +. (adv *. (m.(i - 1) -. m.(i)))
  done;
  if bins > 1 then
    dm.(bins - 1) <- dm.(bins - 1) +. (adv *. m.(bins - 2));
  (* Halving kernel. *)
  if halve_coeff > 0.0 then
    for i = 1 to bins - 1 do
      let rate = halve_coeff *. center ~h i *. m.(i) in
      if rate <> 0.0 then begin
        dm.(i) <- dm.(i) -. rate;
        let f = (center ~h i /. 2.0 /. h) -. 0.5 in
        if f <= 0.0 then dm.(0) <- dm.(0) +. rate
        else begin
          let lo = int_of_float f in
          let frac = f -. float_of_int lo in
          dm.(lo) <- dm.(lo) +. (rate *. (1.0 -. frac));
          dm.(lo + 1) <- dm.(lo + 1) +. (rate *. frac)
        end
      end
    done

(* Clip the tiny negative excursions RK4 can introduce near sharp
   fronts and renormalize to unit mass. *)
let renormalize m =
  let sum = ref 0.0 in
  for i = 0 to Array.length m - 1 do
    if m.(i) < 0.0 then m.(i) <- 0.0;
    sum := !sum +. m.(i)
  done;
  if !sum > 0.0 then
    for i = 0 to Array.length m - 1 do
      m.(i) <- m.(i) /. !sum
    done
