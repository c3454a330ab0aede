(* The moments are an all-float record, stored unboxed: [add] runs
   once per acknowledgment, and as float fields of a record that also
   holds the int count every write would box. *)
type moments = {
  mutable mean : float;
  mutable m2 : float;
  mutable min : float;
  mutable max : float;
}

type t = { mutable n : int; m : moments }

let make n ~mean ~m2 ~min ~max = { n; m = { mean; m2; min; max } }

let create () = make 0 ~mean:0.0 ~m2:0.0 ~min:infinity ~max:neg_infinity

let add t x =
  t.n <- t.n + 1;
  let m = t.m in
  let delta = x -. m.mean in
  m.mean <- m.mean +. (delta /. float_of_int t.n);
  m.m2 <- m.m2 +. (delta *. (x -. m.mean));
  if x < m.min then m.min <- x;
  if x > m.max then m.max <- x

let count t = t.n

let mean t = t.m.mean

type state = {
  s_n : int;
  s_mean : float;
  s_m2 : float;
  s_min : float;
  s_max : float;
}

let capture t =
  {
    s_n = t.n;
    s_mean = t.m.mean;
    s_m2 = t.m.m2;
    s_min = t.m.min;
    s_max = t.m.max;
  }

let restore t st =
  t.n <- st.s_n;
  t.m.mean <- st.s_mean;
  t.m.m2 <- st.s_m2;
  t.m.min <- st.s_min;
  t.m.max <- st.s_max
