type params = {
  min_th : float;
  max_th : float;
  w_q : float;
  max_p : float;
  mean_pkt_time : float;
  ecn : bool;
}

let default_params ~mean_pkt_time =
  {
    min_th = 5.0;
    max_th = 15.0;
    w_q = 0.002;
    max_p = 0.1;
    mean_pkt_time;
    ecn = false;
  }

type taps = {
  avg_s : Obs.Series.t;
  early_drops_c : Obs.Registry.counter;
  marks_c : Obs.Registry.counter;
}

(* The average queue is updated on every arrival, so the float state is
   an all-float record, stored unboxed: as float fields of the mixed
   record [t] each write would box. *)
type est = {
  mutable avg : float;
  mutable q_time : float;  (* start of the current idle period *)
}

type t = {
  p : params;
  rng : Sim.Rng.t;
  est : est;
  mutable count : int;  (* packets since last drop while between thresholds *)
  mutable idle : bool;
  mutable drops : int;
  mutable marks : int;
  mutable taps : taps option;
}

let create p ~rng =
  {
    p;
    rng;
    est = { avg = 0.0; q_time = 0.0 };
    count = -1;
    idle = true;
    drops = 0;
    marks = 0;
    taps = None;
  }

let set_registry t reg ~id =
  t.taps <-
    Option.map
      (fun r ->
        {
          avg_s = Obs.Registry.series r (Printf.sprintf "red.%s.avg_queue" id);
          early_drops_c =
            Obs.Registry.counter r (Printf.sprintf "red.%s.early_drops" id);
          marks_c = Obs.Registry.counter r (Printf.sprintf "red.%s.marks" id);
        })
      reg

let note_empty t ~now =
  t.idle <- true;
  t.est.q_time <- now

(* Age the average across an idle period as if m small packets had been
   serviced, per the RED paper. *)
let update_avg t ~now ~qlen =
  let e = t.est in
  if t.idle && qlen = 0 then begin
    let m = (now -. e.q_time) /. t.p.mean_pkt_time in
    let m = if 0.0 >= m then 0.0 else m in
    e.avg <- e.avg *. ((1.0 -. t.p.w_q) ** m)
  end
  else e.avg <- ((1.0 -. t.p.w_q) *. e.avg) +. (t.p.w_q *. float_of_int qlen)

let record_drop t =
  t.drops <- t.drops + 1;
  match t.taps with None -> () | Some taps -> Obs.Registry.incr taps.early_drops_c

let record_mark t =
  t.marks <- t.marks + 1;
  match t.taps with None -> () | Some taps -> Obs.Registry.incr taps.marks_c

let decide t ~now ~qlen =
  update_avg t ~now ~qlen;
  if !Sim.Invariant.enabled then
    Sim.Invariant.require
      (Float.is_finite t.est.avg && t.est.avg >= 0.0)
      (fun () ->
        Printf.sprintf "Red.decide: average queue %g is not a sane occupancy"
          t.est.avg);
  (match t.taps with
  | None -> ()
  | Some taps -> Obs.Series.add taps.avg_s ~time:now t.est.avg);
  t.idle <- false;
  if t.est.avg < t.p.min_th then begin
    t.count <- -1;
    `Admit
  end
  else if t.est.avg >= t.p.max_th then begin
    t.count <- 0;
    record_drop t;
    `Drop
  end
  else begin
    t.count <- t.count + 1;
    let p_b =
      t.p.max_p *. (t.est.avg -. t.p.min_th) /. (t.p.max_th -. t.p.min_th)
    in
    let denom = 1.0 -. (float_of_int t.count *. p_b) in
    let p_a = if denom <= 0.0 then 1.0 else p_b /. denom in
    if Sim.Rng.bernoulli t.rng p_a then begin
      t.count <- 0;
      if t.p.ecn then begin
        record_mark t;
        `Mark
      end
      else begin
        record_drop t;
        `Drop
      end
    end
    else `Admit
  end

(* The rng is shared with the owning link, which captures it once. *)
type state = {
  s_avg : float;
  s_count : int;
  s_q_time : float;
  s_idle : bool;
  s_drops : int;
  s_marks : int;
}

let capture t =
  {
    s_avg = t.est.avg;
    s_count = t.count;
    s_q_time = t.est.q_time;
    s_idle = t.idle;
    s_drops = t.drops;
    s_marks = t.marks;
  }

let restore t st =
  t.est.avg <- st.s_avg;
  t.count <- st.s_count;
  t.est.q_time <- st.s_q_time;
  t.idle <- st.s_idle;
  t.drops <- st.s_drops;
  t.marks <- st.s_marks
