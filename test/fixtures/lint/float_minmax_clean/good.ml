(* Fixture: the typed clamps, and max/min the rule leaves alone. *)
let floor_one x = if 1.0 >= x then 1.0 else x

let halve x =
  let half = x /. 2.0 in
  if 2.0 >= half then 2.0 else half

let wider a b = Stdlib.max a b

let count n = max 16 (2 * n)
