(* Splitmix64: tiny, fast, and passes BigCrush for our purposes.  State
   is a single 64-bit counter, which makes [split] trivial. *)

(* lint: allow-file ckpt-coverage -- state/set_state are this module's
   capture/restore pair; checkpoints carry the generator exactly *)

(* The counter lives in 8 raw bytes rather than a [mutable int64]
   field: a record field holds an [int64] boxed, so every draw would
   allocate a fresh 3-word box for the advanced counter.  Reading and
   writing the bytes with the 64-bit primitives keeps the arithmetic
   unboxed, and [@inline] keeps [mix]/[next]/[unit_float] inside the
   exported draws, so a draw allocates only the box its float (or
   [int64]) result crosses the call in. *)
type t = { state : Bytes.t }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let state = Bytes.create 8 in
  Bytes.set_int64_ne state 0 s;
  { state }

let create seed = of_state (mix (Int64.of_int seed))

(* Checkpoint/restore: the whole generator is one 64-bit counter, so
   the explicit state API is exact — no reaching into opaque stdlib
   [Random.State] internals, and a restored stream continues the
   original sequence bit-for-bit. *)
let state t = Bytes.get_int64_ne t.state 0

let set_state t s = Bytes.set_int64_ne t.state 0 s

let[@inline] next t =
  let s = Int64.add (Bytes.get_int64_ne t.state 0) golden_gamma in
  Bytes.set_int64_ne t.state 0 s;
  mix s

let bits64 t = next t

let split t = of_state (mix (next t))

let copy t = of_state (state t)

(* 53 uniformly random mantissa bits -> float in [0, 1). *)
let[@inline] unit_float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t = unit_float t

let float t bound = unit_float t *. bound

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bound is tiny compared to 2^62. *)
  let v = Int64.to_int (Int64.shift_right_logical (next t) 2) in
  v mod bound

let bernoulli t p = unit_float t < p

let exponential t mean =
  let u = unit_float t in
  (* Guard against log 0. *)
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

let range t lo hi = lo +. (unit_float t *. (hi -. lo))
