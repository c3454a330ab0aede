(* [weight] and [avg] form an all-float record, stored unboxed, so the
   per-ack [update] writes no box; the int sample count sits beside it. *)
type cur = { weight : float; mutable avg : float }

type t = { c : cur; mutable samples : int }

let create ~weight =
  if weight <= 0.0 || weight > 1.0 then
    invalid_arg "Ewma.create: weight must be in (0, 1]";
  { c = { weight; avg = 0.0 }; samples = 0 }

let update t x =
  let c = t.c in
  if t.samples = 0 then c.avg <- x
  else c.avg <- c.avg +. (c.weight *. (x -. c.avg));
  t.samples <- t.samples + 1

let value t = t.c.avg

type state = { s_avg : float; s_samples : int }

let capture t = { s_avg = t.c.avg; s_samples = t.samples }

let restore t st =
  t.c.avg <- st.s_avg;
  t.samples <- st.s_samples
