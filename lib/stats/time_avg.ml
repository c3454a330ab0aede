type t = {
  mutable start : float;
  mutable last_time : float;
  mutable last_value : float;
  mutable weighted_sum : float;
}

let create ~start ~value =
  { start; last_time = start; last_value = value; weighted_sum = 0.0 }

let update t ~time ~value =
  if time < t.last_time then
    invalid_arg "Time_avg.update: time moves backwards";
  t.weighted_sum <- t.weighted_sum +. (t.last_value *. (time -. t.last_time));
  t.last_time <- time;
  t.last_value <- value

let average t ~upto =
  let upto = Stdlib.max upto t.last_time in
  let total = t.weighted_sum +. (t.last_value *. (upto -. t.last_time)) in
  let span = upto -. t.start in
  if span <= 0.0 then t.last_value else total /. span

let reset t ~start ~value =
  t.start <- start;
  t.last_time <- start;
  t.last_value <- value;
  t.weighted_sum <- 0.0

type state = {
  s_start : float;
  s_last_time : float;
  s_last_value : float;
  s_weighted_sum : float;
}

let capture t =
  {
    s_start = t.start;
    s_last_time = t.last_time;
    s_last_value = t.last_value;
    s_weighted_sum = t.weighted_sum;
  }

let restore t st =
  t.start <- st.s_start;
  t.last_time <- st.s_last_time;
  t.last_value <- st.s_last_value;
  t.weighted_sum <- st.s_weighted_sum
