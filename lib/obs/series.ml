(* Bounded time-series recorder.  Memory is capped at [limit] samples:
   when the buffer fills, every other stored sample is discarded and the
   recording stride doubles, so a run of any length keeps an
   approximately uniform subsample of at most [limit] points.  The
   decimation schedule depends only on the sequence of [add] calls —
   two series fed identical call sequences keep identical sample
   times — which the flow-probe CSV export relies on to join columns. *)

type t = {
  name : string;
  limit : int;
  mutable times : float array;
  mutable values : float array;
  mutable len : int;
  mutable stride : int;  (* record 1 of every [stride] offered samples *)
  mutable skip : int;  (* offers left to discard before the next record *)
  mutable offered : int;
}

let default_limit = 4096

let create ?(limit = default_limit) name =
  if limit < 2 then invalid_arg "Series.create: limit must be at least 2";
  {
    name;
    limit;
    times = [||];
    values = [||];
    len = 0;
    stride = 1;
    skip = 0;
    offered = 0;
  }

let name t = t.name

let length t = t.len

let limit t = t.limit

let stride t = t.stride

let offered t = t.offered

(* Keep the even-indexed half; the stride doubles so future samples
   continue the same spacing. *)
let decimate t =
  let kept = (t.len + 1) / 2 in
  for i = 0 to kept - 1 do
    t.times.(i) <- t.times.(2 * i);
    t.values.(i) <- t.values.(2 * i)
  done;
  t.len <- kept;
  t.stride <- 2 * t.stride;
  t.skip <- t.stride - 1

let add t ~time value =
  t.offered <- t.offered + 1;
  if t.skip > 0 then t.skip <- t.skip - 1
  else begin
    if t.len = Array.length t.times then begin
      let cap = Stdlib.min t.limit (Stdlib.max 64 (2 * t.len)) in
      let grow a = Array.append (Array.sub a 0 t.len) (Array.make (cap - t.len) 0.0) in
      t.times <- grow t.times;
      t.values <- grow t.values
    end;
    t.times.(t.len) <- time;
    t.values.(t.len) <- value;
    t.len <- t.len + 1;
    t.skip <- t.stride - 1;
    if t.len >= t.limit then decimate t
  end

let times t = Array.sub t.times 0 t.len

let values t = Array.sub t.values 0 t.len

let last t = if t.len = 0 then None else Some (t.times.(t.len - 1), t.values.(t.len - 1))

(* The buffers are restored at exactly [s_len] capacity: the next add
   that needs room re-grows them, which is unobservable (growth policy
   depends only on [len]/[limit], both restored). *)
type state = {
  s_times : float array;
  s_values : float array;
  s_stride : int;
  s_skip : int;
  s_offered : int;
}

let capture t =
  {
    s_times = Array.sub t.times 0 t.len;
    s_values = Array.sub t.values 0 t.len;
    s_stride = t.stride;
    s_skip = t.skip;
    s_offered = t.offered;
  }

let restore t st =
  t.times <- Array.copy st.s_times;
  t.values <- Array.copy st.s_values;
  t.len <- Array.length st.s_times;
  t.stride <- st.s_stride;
  t.skip <- st.s_skip;
  t.offered <- st.s_offered
