type t = {
  mutable len : int;
  mutable time : float array;
  mutable queue : float array;
  mutable avg : float array;
  mutable drop : float array;
  mutable lambda : float array;
  mutable rla_w : float array;
}

let create ?(capacity = 256) () =
  let mk () = Array.make (Stdlib.max 1 capacity) 0.0 in
  {
    len = 0;
    time = mk ();
    queue = mk ();
    avg = mk ();
    drop = mk ();
    lambda = mk ();
    rla_w = mk ();
  }

let grow field len = Array.append field (Array.make (Stdlib.max 1 len) 0.0)

let push t ~time ~queue ~avg ~drop ~lambda ~rla_w =
  if t.len = Array.length t.time then begin
    t.time <- grow t.time t.len;
    t.queue <- grow t.queue t.len;
    t.avg <- grow t.avg t.len;
    t.drop <- grow t.drop t.len;
    t.lambda <- grow t.lambda t.len;
    t.rla_w <- grow t.rla_w t.len
  end;
  let i = t.len in
  t.time.(i) <- time;
  t.queue.(i) <- queue;
  t.avg.(i) <- avg;
  t.drop.(i) <- drop;
  t.lambda.(i) <- lambda;
  t.rla_w.(i) <- rla_w;
  t.len <- i + 1

let length t = t.len

let time t i = t.time.(i)

let rla_w t i = t.rla_w.(i)

(* First index inside the trailing [window] seconds. *)
let tail_start t ~window =
  if t.len = 0 then 0
  else begin
    let cutoff = t.time.(t.len - 1) -. window in
    let i = ref (t.len - 1) in
    while !i > 0 && t.time.(!i - 1) >= cutoff do
      decr i
    done;
    !i
  end

type tail = {
  avg_amplitude : float;
  avg_mean : float;
  queue_mean : float;
  drop_mean : float;
  lambda_mean : float;
}

let tail_stats t ~window =
  if t.len = 0 then
    {
      avg_amplitude = 0.0;
      avg_mean = 0.0;
      queue_mean = 0.0;
      drop_mean = 0.0;
      lambda_mean = 0.0;
    }
  else begin
    let start = tail_start t ~window in
    let n = t.len - start in
    let lo = ref infinity and hi = ref neg_infinity in
    let sa = ref 0.0 and sq = ref 0.0 and sd = ref 0.0 and sl = ref 0.0 in
    for i = start to t.len - 1 do
      let a = t.avg.(i) in
      if a < !lo then lo := a;
      if a > !hi then hi := a;
      sa := !sa +. a;
      sq := !sq +. t.queue.(i);
      sd := !sd +. t.drop.(i);
      sl := !sl +. t.lambda.(i)
    done;
    let nf = float_of_int n in
    {
      avg_amplitude = 0.5 *. (!hi -. !lo);
      avg_mean = !sa /. nf;
      queue_mean = !sq /. nf;
      drop_mean = !sd /. nf;
      lambda_mean = !sl /. nf;
    }
  end

(* Limit-cycle period estimate: mean time between successive upward
   crossings of the tail mean by the averaged-queue series. *)
let tail_period t ~window =
  if t.len < 3 then None
  else begin
    let start = tail_start t ~window in
    let stats = tail_stats t ~window in
    let level = stats.avg_mean in
    let first = ref nan and last = ref nan and crossings = ref 0 in
    for i = start + 1 to t.len - 1 do
      if t.avg.(i - 1) < level && t.avg.(i) >= level then begin
        incr crossings;
        if Float.is_nan !first then first := t.time.(i);
        last := t.time.(i)
      end
    done;
    if !crossings >= 2 then
      Some ((!last -. !first) /. float_of_int (!crossings - 1))
    else None
  end

let pp_csv ppf t =
  Format.fprintf ppf "t,queue,avg_queue,drop_p,lambda,rla_window@.";
  for i = 0 to t.len - 1 do
    Format.fprintf ppf "%.6f,%.6f,%.6f,%.6f,%.6f,%.6f@." t.time.(i)
      t.queue.(i) t.avg.(i) t.drop.(i) t.lambda.(i) t.rla_w.(i)
  done

let to_csv_string t =
  let buf = Buffer.create (64 * (t.len + 1)) in
  let ppf = Format.formatter_of_buffer buf in
  pp_csv ppf t;
  Format.pp_print_flush ppf ();
  Buffer.contents buf
