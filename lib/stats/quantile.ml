type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = [||]; size = 0; sorted = true }

let add t x =
  let cap = Array.length t.data in
  if t.size = cap then begin
    let data = Array.make (Stdlib.max 64 (2 * cap)) 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end;
  t.data.(t.size) <- x;
  t.size <- t.size + 1;
  t.sorted <- false

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.size in
    Array.sort Float.compare live;
    Array.blit live 0 t.data 0 t.size;
    t.sorted <- true
  end

let quantile t q =
  if t.size = 0 then invalid_arg "Quantile.quantile: empty";
  if q < 0.0 || q > 1.0 then invalid_arg "Quantile.quantile: q out of range";
  ensure_sorted t;
  let pos = q *. float_of_int (t.size - 1) in
  let lo = int_of_float pos in
  let hi = Stdlib.min (lo + 1) (t.size - 1) in
  let frac = pos -. float_of_int lo in
  (t.data.(lo) *. (1.0 -. frac)) +. (t.data.(hi) *. frac)

let mean t =
  if t.size = 0 then 0.0
  else begin
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      sum := !sum +. t.data.(i)
    done;
    !sum /. float_of_int t.size
  end
