(* The estimator lives in an all-float record so updating it once per
   ack stores the floats unboxed; as fields of the mixed record [t]
   each write would box. *)
type est = { mutable srtt : float; mutable rttvar : float }

type t = {
  min_rto : float;
  max_rto : float;
  est : est;
  mutable shift : int;  (* exponential backoff: timeout is scaled by 2^shift *)
  mutable samples : int;
}

let create ?(min_rto = 1.0) ?(max_rto = 60.0) () =
  {
    min_rto;
    max_rto;
    est = { srtt = 0.0; rttvar = 0.0 };
    shift = 0;
    samples = 0;
  }

let sample ?(rexmitted = false) t m =
  if m < 0.0 then invalid_arg "Rto.sample: negative RTT";
  (* Karn's algorithm: a measurement taken over a retransmitted
     sequence range is ambiguous (the ack may answer either
     transmission), so it must neither update the estimator nor relax
     an in-force backoff.  The timestamp echo makes most samples
     unambiguous; callers flag the ones that are not. *)
  if not rexmitted then begin
    let e = t.est in
    if t.samples = 0 then begin
      e.srtt <- m;
      e.rttvar <- m /. 2.0
    end
    else begin
      let err = m -. e.srtt in
      e.srtt <- e.srtt +. (err /. 8.0);
      e.rttvar <- e.rttvar +. ((abs_float err -. e.rttvar) /. 4.0)
    end;
    t.samples <- t.samples + 1;
    t.shift <- 0
  end

let srtt t = t.est.srtt

(* Typed float clamps ([if a >= b then a else b] is exactly
   [Stdlib.max a b] on floats, NaN and signed zeros included): the
   polymorphic [Stdlib.max]/[min] box both arguments. *)
let timeout t =
  let base =
    if t.samples = 0 then 3.0 (* conservative default before any sample *)
    else
      let v = t.est.srtt +. (4.0 *. t.est.rttvar) in
      if t.min_rto >= v then t.min_rto else v
  in
  let v = base *. (2.0 ** float_of_int t.shift) in
  if v <= t.max_rto then v else t.max_rto

(* The shift only grows while it still changes the clamped timeout, so
   the cap is enforced structurally: once [timeout t = max_rto] the
   shift freezes and [2.0 ** shift] can never overflow. *)
let backoff t = if timeout t < t.max_rto then t.shift <- t.shift + 1

type state = {
  s_srtt : float;
  s_rttvar : float;
  s_shift : int;
  s_samples : int;
}

let capture t =
  {
    s_srtt = t.est.srtt;
    s_rttvar = t.est.rttvar;
    s_shift = t.shift;
    s_samples = t.samples;
  }

let restore t st =
  t.est.srtt <- st.s_srtt;
  t.est.rttvar <- st.s_rttvar;
  t.shift <- st.s_shift;
  t.samples <- st.s_samples
