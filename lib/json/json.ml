type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Floats of float array
  | Verbatim of string

(* --- exact float printing ---------------------------------------------

   A finite normal float is [f = ±m·2^e] with [2^52 <= m < 2^53] and
   [e >= -1074].  For a decimal scale [k >= 0], [f·10^k = m·5^k / 2^s]
   with [s = -(e+k)], so every rounding of [f] to a decimal position is
   read off one exact product [X = m·5^k], computed in 62-bit limbs.
   See json.mli for the domain and why the result equals the [%g]
   definition. *)

(* The largest scale: a float below 1e-307 is scaled by up to
   [10^(16 + 308)]. *)
let kmax = 324

let mask31 = (1 lsl 31) - 1

(* 5^k for 0 <= k <= kmax as little-endian 62-bit limbs followed by one
   zero limb, built from 31-bit halves multiplied by 5.  Rows up to
   [k = 26] hold one limb ([5^26 < 2^62]). *)
let pow5 =
  let halves = ref [| 1 |] in
  Array.init (kmax + 1) (fun k ->
      if k > 0 then begin
        let p = !halves in
        let n = Array.length p in
        let q = Array.make (n + 1) 0 in
        for i = 0 to n - 1 do
          let v = (p.(i) * 5) + q.(i) in
          q.(i) <- v land mask31;
          q.(i + 1) <- v lsr 31
        done;
        halves := if q.(n) = 0 then Array.sub q 0 n else q
      end;
      let p = !halves in
      let half i = if i < Array.length p then p.(i) else 0 in
      Array.init
        (((Array.length p + 1) / 2) + 1)
        (fun j -> half (2 * j) lor (half ((2 * j) + 1) lsl 31)))

(* 10^j for 0 <= j <= 18; 10^18 < 2^62. *)
let pow10 =
  [|
    1; 10; 100; 1_000; 10_000; 100_000; 1_000_000; 10_000_000; 100_000_000;
    1_000_000_000; 10_000_000_000; 100_000_000_000; 1_000_000_000_000;
    10_000_000_000_000; 100_000_000_000_000; 1_000_000_000_000_000;
    10_000_000_000_000_000; 100_000_000_000_000_000;
    1_000_000_000_000_000_000;
  |]

(* Unchecked limb access: the callers' range guards bound every index
   by the table row and the scratch length. *)
external ( .%() ) : int array -> int -> int = "%array_unsafe_get"

external ( .%()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* "00" .. "99": two digits read and stored as one 16-bit word in native
   byte order, so they land in reading order on either endianness. *)
let pairs =
  String.init 200 (fun i ->
      Char.chr (48 + if i land 1 = 0 then i / 20 else i / 2 mod 10))

external get16 : string -> int -> int = "%caml_string_get16u"

external set16 : bytes -> int -> int -> unit = "%caml_bytes_set16u"

let[@inline] put2 b i v = set16 b i (get16 pairs (2 * v))

(* [put_small b last x w] writes the [w <= 8] digits of [x < 10^w],
   zero padded, the last at [b.[last]]. *)
let rec put_small b last x w =
  if w >= 2 then begin
    let q = x / 100 in
    put2 b (last - 1) (x - (q * 100));
    put_small b (last - 2) q (w - 2)
  end
  else if w = 1 then Bytes.unsafe_set b last (Char.unsafe_chr (48 + x))

(* The 8 digits of [x < 10^8] at [b.[i .. i+7]], with no division:
   [y = x·M], [M = ceil(2^47 / 10^6)], is [x / 10^6] in fixed point with
   47 fraction bits, too large by less than [10^8 / 2^47 < 10^-6], so
   its integer part is the first pair of digits; each further pair is
   the integer part of the fraction times 100, the error growing to at
   most [0.71] by the last, exact pair (jeaiii's method). *)
let mask47 = (1 lsl 47) - 1

let[@inline] put8 b i x =
  let y = x * 140_737_489 in
  put2 b i (y lsr 47);
  let y = (y land mask47) * 100 in
  put2 b (i + 2) (y lsr 47);
  let y = (y land mask47) * 100 in
  put2 b (i + 4) (y lsr 47);
  put2 b (i + 6) (((y land mask47) * 100) lsr 47)

(* [put_digits b last n w] writes the [w] (1 to 19) low decimal digits
   of [n >= 0], zero padded, least significant at [b.[last]]: groups of
   eight split off by dividing by the constant 10^8, the rest in
   pairs. *)
let put_digits b last n w =
  if w <= 8 then put_small b last n w
  else begin
    let hi = n / 100_000_000 in
    put8 b (last - 7) (n - (hi * 100_000_000));
    if w <= 16 then put_small b (last - 8) hi (w - 8)
    else begin
      let top = hi / 100_000_000 in
      put8 b (last - 15) (hi - (top * 100_000_000));
      put_small b (last - 16) top (w - 16)
    end
  end

(* The number of decimal digits of [n >= 0], counting from [d]. *)
let rec digit_count n d =
  if d <= 18 && n >= pow10.(d) then digit_count n (d + 1) else d

(* The index of the last byte at or before [i] that is not '0'. *)
let rec last_nonzero b i =
  if Bytes.unsafe_get b i = '0' then last_nonzero b (i - 1) else i

let[@inline] put_sign b pos neg =
  if neg then Bytes.unsafe_set b pos '-';
  pos + Bool.to_int neg

(* [-]n.0 for an integral value [n < 10^15]; returns the end. *)
let put_integral b pos ~neg n =
  let first = put_sign b pos neg in
  let w = digit_count n 1 in
  put_digits b (first + w - 1) n w;
  Bytes.unsafe_set b (first + w) '.';
  Bytes.unsafe_set b (first + w + 1) '0';
  first + w + 2

(* [-]n·10^-d with exactly [d] digits after the point ([%.{d}f] of a
   value whose rounding is [n]); the integer digits are written one
   place right and moved left to open the point.  Returns the end. *)
let put_point b pos ~neg n d =
  let first = put_sign b pos neg in
  let w = digit_count n (d + 1) in
  if d = 0 then begin
    put_digits b (first + w - 1) n w;
    first + w
  end
  else begin
    put_digits b (first + w) n w;
    for i = first to first + w - d - 1 do
      Bytes.unsafe_set b i (Bytes.unsafe_get b (i + 1))
    done;
    Bytes.unsafe_set b (first + w - d) '.';
    first + w + 1
  end

(* [%.{p}g], for a [p] of 15 to 17, of a value whose rounding to [p]
   digits is [c], given as [n = c·10^(17-p)] with
   [10^16 <= n <= 10^17] ([n = 10^17] is a carry into exponent [e10+1])
   and decimal exponent [e10 <= 14].  The 17 digits of [n] are written
   and the trailing zeros go (the last [17-p] are known to be zeros),
   and the point with them when nothing follows it, which leaves [c]'s
   digits as [%g] strips them.  The layout is fixed for
   [-4 <= e10 < 17], [d.ddde±XX] otherwise, with a third exponent digit
   from [|e10| >= 100]; as [e10 <= 14 < p], that is [%g]'s rule for
   every such [p].  Returns the end. *)
let put_g b pos ~neg n p e10 =
  let carry = n = pow10.(17) in
  let e10 = if carry then e10 + 1 else e10 in
  let n = if carry then pow10.(16) else n in
  let first = put_sign b pos neg in
  if e10 >= -4 && e10 < 17 then begin
    (* d.ddd, the integer digits written one place right and moved left
       to open the point, or 0.000ddd *)
    let lead = if e10 < 0 then -e10 else 0 in
    put_digits b (first + lead + 17) n 17;
    if e10 >= 0 then
      for i = first to first + e10 do
        Bytes.unsafe_set b i (Bytes.unsafe_get b (i + 1))
      done
    else begin
      Bytes.unsafe_set b first '0';
      for i = first + 2 to first - e10 do
        Bytes.unsafe_set b i '0'
      done
    end;
    let dot = first + Int.max (e10 + 1) 1 in
    Bytes.unsafe_set b dot '.';
    let last = first + lead + p in
    let last =
      if Bytes.unsafe_get b last = '0' then last_nonzero b last else last
    in
    if last = dot then dot else last + 1
  end
  else begin
    put_digits b (first + 17) n 17;
    Bytes.unsafe_set b first (Bytes.unsafe_get b (first + 1));
    Bytes.unsafe_set b (first + 1) '.';
    let last = last_nonzero b (first + p) in
    let last = if last = first + 1 then first else last in
    Bytes.unsafe_set b (last + 1) 'e';
    Bytes.unsafe_set b (last + 2) (if e10 < 0 then '-' else '+');
    let a = abs e10 in
    if a < 100 then begin
      put2 b (last + 3) a;
      last + 5
    end
    else begin
      put_small b (last + 5) a 3;
      last + 6
    end
  end

(* The product [p·m] of a limb [p < 2^62] and [m < 2^53] is
   [mul_high p m·2^62 + mul_low p m], formed from 31-bit halves: every
   sum is below 2^63, so exact in the unsigned reading of the 63 bits. *)
let[@inline] mul_mid p m =
  ((p lsr 31) * (m land mask31)) + ((p land mask31) * (m lsr 31))

let[@inline] mul_low p m =
  ((p land mask31) * (m land mask31)) + ((mul_mid p m land mask31) lsl 31)

let[@inline] mul_high p m =
  ((p lsr 31) * (m lsr 31)) + (mul_mid p m lsr 31) + (mul_low p m lsr 62)

(* [X = m·5^k] into [x.(0 .. n)] for the [n] limbs of the row [q] of
   [5^k], carrying [c]. *)
let rec mul_limbs x q m i n c =
  if i = n then x.%(n) <- c
  else begin
    let t = (mul_low q.%(i) m land max_int) + c in
    x.%(i) <- t land max_int;
    mul_limbs x q m (i + 1) n (mul_high q.%(i) m + (t lsr 62))
  end

let[@inline] limb row i = if i < Array.length row then row.%(i) else 0

(* Compares the low [s] bits of [X] (all flipped when [flip = -1]) with
   the low [s] bits of [5^k lsr 1], limb by limb from limb [j] down. *)
let rec frac_cmp x row s flip j =
  if j < 0 then 0
  else
    let bits = if j < s / 62 then max_int else (1 lsl (s mod 62)) - 1 in
    let h = (limb row j lsr 1) lor ((limb row (j + 1) land 1) lsl 61) in
    let c = Int.compare ((x.%(j) lxor flip) land bits) (h land bits) in
    if c <> 0 then c else frac_cmp x row s flip (j - 1)

(* [a] when [c = 1], [b] when [c = 0]: the choices below depend on the
   digits, so they are made without branches. *)
let[@inline] select c (a : int) b = b lxor ((a lxor b) land -c)

(* [b + rem / (2·half)] rounded to an integer, ties to even, where
   [sticky = 1] says the value has a nonzero part below [rem]. *)
let[@inline] round_at b (rem : int) half sticky =
  b
  + (Bool.to_int (rem > half)
    lor (Bool.to_int (rem = half) land (sticky lor (b land 1))))

(* Whether the candidate [c] lies in [(lo, hi]], as 0 or 1. *)
let[@inline] reads lo hi (c : int) =
  Bool.to_int (lo < c) land Bool.to_int (c <= hi)

(* The first of the 15-, 16- and 17-digit roundings of [v = q + frac]
   ([q] of 17 digits, [frac] in [0, 1)) that lies in [(lo, hi]], each
   scaled back to 17 digits, written with decimal exponent [e10]; [-1]
   if none does.  [hb = 1] iff [frac >= 1/2], [sb = 1] iff [frac] is
   neither 0 nor 1/2. *)
let pick b pos ~neg q lo hi hb sb e10 =
  let sticky = hb lor sb and q1 = q / 10 and q2 = q / 100 in
  let c15 = 100 * round_at q2 (q - (q2 * 100)) 50 sticky
  and c16 = 10 * round_at q1 (q - (q1 * 10)) 5 sticky
  and c17 = q + (hb land (sb lor (q land 1))) in
  let ok15 = reads lo hi c15 in
  let ok16 = reads lo hi c16 lor ok15 in
  let n = select ok15 c15 (select ok16 c16 c17) in
  if lo < n && n <= hi then put_g b pos ~neg n (17 - ok15 - ok16) e10 else -1

(* [q] has 17 digits (exponent [g]) or 18 ([g+1]); an 18-digit [q] is
   divided by 10 first, its last digit [d] joining the fraction. *)
let pick_scaled b pos ~neg q lo hi hb sb g =
  if q < pow10.(16) || q >= pow10.(18) then -1
  else
    let t = Bool.to_int (q >= pow10.(17)) and q1 = q / 10 in
    let d = q - (q1 * 10) in
    pick b pos ~neg (select t q1 q)
      (select t (lo / 10) lo)
      (select t (hi / 10) hi)
      (select t (Bool.to_int (d >= 5)) hb)
      (select t
         (Bool.to_int (d <> 0) land Bool.to_int (d <> 5) lor hb lor sb)
         sb)
      (g + t)

(* The one exact scaling: [k = 16 - g] puts [v = |f|·10^k = X / 2^s] in
   [10^16, 10^18).  With the half unit [H = 5^k / 2^(s+1)] split as
   [hq + hr / 2^(s+1)] and [X = q·2^s + r], a candidate [c] reads back
   iff [floor(v - H) < c <= floor(v + H)], and those bounds are
   [q - hq - (2r < hr)] and [q + hq + (2r + hr >= 2^(s+1))].  When [5^k]
   is one limb and [s <= 60] all of it is native arithmetic on the two
   limbs of [X]; otherwise the fraction tests compare limbs
   ([2r < hr] iff [r <= hr lsr 1], [2r + hr >= 2^(s+1)] iff
   [~r < hr lsr 1], as [hr] is odd). *)
let scale_shortest b pos ~neg x m e g =
  let k = 16 - g in
  let s = -(e + k) in
  if k > kmax || s < 1 || s > 1074 then -1
  else begin
    let row = pow5.(k) in
    let n = Array.length row - 1 in
    if n = 1 && s <= 60 then begin
      let p = row.%(0) in
      let xl = mul_low p m land max_int in
      let q = (xl lsr s) lor (mul_high p m lsl (62 - s))
      and r = xl land ((1 lsl s) - 1) in
      let hq = p lsr (s + 1) and hr = p land ((1 lsl (s + 1)) - 1) in
      pick_scaled b pos ~neg q
        (q - hq - Bool.to_int (2 * r < hr))
        (q + hq + Bool.to_int (hr >= (1 lsl (s + 1)) - (2 * r)))
        ((r lsr (s - 1)) land 1)
        (Bool.to_int (r land ((1 lsl (s - 1)) - 1) <> 0))
        g
    end
    else begin
      mul_limbs x row m 0 n 0;
      let a = s / 62 and t = (s + 1) / 62 in
      for i = n + 1 to a + 1 do
        x.%(i) <- 0
      done;
      let q = (x.%(a) lsr (s mod 62)) lor (x.%(a + 1) lsl (62 - (s mod 62)))
      and hq =
        (limb row t lsr ((s + 1) mod 62))
        lor (limb row (t + 1) lsl (62 - ((s + 1) mod 62)))
      in
      (* As 5^k is odd, X has a set bit below s-1 iff m does. *)
      pick_scaled b pos ~neg q
        (q - hq - Bool.to_int (frac_cmp x row s 0 a <= 0))
        (q + hq + Bool.to_int (frac_cmp x row s (-1) a < 0))
        ((x.%((s - 1) / 62) lsr ((s - 1) mod 62)) land 1)
        (Bool.to_int (m land ((1 lsl Int.min (s - 1) 62) - 1) <> 0))
        g
    end
  end

(* The kernels take a float as [bits], its low 63 bits (exponent and
   significand), and its sign [neg]: ints cross a call unboxed, a float
   would be boxed. *)
let[@inline] significand bits =
  bits land 0xF_FFFF_FFFF_FFFF lor 0x10_0000_0000_0000

(* The bits of 1e15; magnitudes compare as their bits read unsigned,
   which adding [min_int] turns into the signed order. *)
let bits_1e15 = Int64.to_int (Int64.bits_of_float 1e15) + min_int

(* lint: hot float_kernel -- every float of an exported array: one exact
   scaling, digits in pairs, written in place; [-1] hands the float to
   the defining search. *)
let float_kernel b pos x bits neg =
  let biased = (bits lsr 52) land 0x7ff in
  if biased = 0x7ff then begin
    Bytes.unsafe_set b pos 'n';
    Bytes.unsafe_set b (pos + 1) 'u';
    Bytes.unsafe_set b (pos + 2) 'l';
    Bytes.unsafe_set b (pos + 3) 'l';
    pos + 4
  end
  else if bits + min_int >= bits_1e15 then -1
  else if biased = 0 then if bits = 0 then put_integral b pos ~neg 0 else -1
  else
    let m = significand bits and sh = 1075 - biased in
    if sh <= 52 && m land ((1 lsl sh) - 1) = 0 then
      put_integral b pos ~neg (m lsr sh)
    else if m = 0x10_0000_0000_0000 then -1
    else scale_shortest b pos ~neg x m (-sh) (((biased - 1023) * 78913) asr 18)

(* The largest integral [n] with [n·10^d <= max_int]. *)
let fixed_max = Array.map (fun p -> max_int / p) pow10

(* lint: hot fixed_kernel -- every number of the flow trace CSV: the
   value scaled by 5^d once, rounded half to even on the exact low
   bits; [-1] hands it to Printf. *)
let fixed_kernel b pos d bits neg =
  if d < 0 || d > 17 then -1
  else
    let biased = (bits lsr 52) land 0x7ff in
    if biased = 0x7ff then -1
    else if biased = 0 then if bits = 0 then put_point b pos ~neg 0 d else -1
    else
      let m = significand bits and sh = 1075 - biased in
      if sh >= 0 && sh <= 52 && m land ((1 lsl sh) - 1) = 0 then
        if m lsr sh <= fixed_max.(d) then
          put_point b pos ~neg ((m lsr sh) * pow10.(d)) d
        else -1
      else
        let s = sh - d in
        if s < 1 then -1
        else if s > 94 then
          (* X < 2^93 <= 2^(s-2): rounds to zero. *)
          put_point b pos ~neg 0 d
        else begin
          let p = pow5.(d).%(0) in
          let xl = mul_low p m land max_int and xh = mul_high p m in
          (* The floor of X / 2^s, [-1] from 2^61 on, and its rounding
             bit s-1. *)
          let q =
            if s >= 62 then xh lsr (s - 62)
            else if xh lsr (s - 1) <> 0 then -1
            else (xl lsr s) lor (xh lsl (62 - s))
          and half =
            (if s <= 62 then xl lsr (s - 1) else xh lsr (s - 63)) land 1
          in
          if q < 0 then -1
          else
            let up =
              half = 1
              && (m land ((1 lsl Int.min (s - 1) 62) - 1) <> 0 || q land 1 = 1)
            in
            put_point b pos ~neg (q + Bool.to_int up) d
        end

(* The definition: the smallest precision p in 1..17 whose "%.{p}g"
   reads back as [f]. *)
let searched f =
  let rec go p =
    if p > 17 then Printf.sprintf "%.17g" f
    else
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then s else go (p + 1)
  in
  go 1

(* [a.(i)] as [to_string (Float a.(i))] renders it, at [b.[pos]], which
   has room for 24 bytes; returns the end.  The float is read here, so
   it is boxed only on the way to the search. *)
let write_float b pos x a i =
  let f = Array.unsafe_get a i in
  let raw = Int64.bits_of_float f in
  let stop =
    float_kernel b pos x (Int64.to_int raw)
      (Int64.shift_right_logical raw 63 = 1L)
  in
  if stop >= 0 then stop
  else begin
    let s = searched f in
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  end

(* Per-domain scratch: the limbs of [X], zero-filled up to index
   [s / 62 + 1], and the bytes of one number (at most 24, as in
   [-1.0000000000000002e-300]). *)
let scratch =
  Domain.DLS.new_key (fun () ->
      (Array.make ((1074 / 62) + 2) 0, Bytes.create 24))

let add_fixed buf decimals f =
  let _, digits = Domain.DLS.get scratch in
  let raw = Int64.bits_of_float f in
  let stop =
    fixed_kernel digits 0 decimals (Int64.to_int raw)
      (Int64.shift_right_logical raw 63 = 1L)
  in
  if stop < 0 then Buffer.add_string buf (Printf.sprintf "%.*f" decimals f)
  else Buffer.add_subbytes buf digits 0 stop

(* --- one-pass rendering ---------------------------------------------

   [to_string] first bounds the document's length, then renders it into
   one buffer of that size, and returns the rendered prefix. *)

(* The most bytes [write_float] writes for a float of magnitude [v]: an
   integral one below 1e7 is at most a sign, 7 digits and ".0"; in
   [1, 1e15) the fixed layout holds at most a sign, 17 digits and a
   point; anything fits 24. *)
let[@inline] bound_of_abs v =
  if v < 1e7 && Float.of_int (Float.to_int v) = v then 10
  else if v >= 1.0 && v < 1e15 then 19
  else 24

(* [s] as a JSON string literal, quotes included. *)
let quoted s =
  let buf = Buffer.create (String.length s + 2) in
  Buffer.add_char buf '"';
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\r' -> Buffer.add_string buf "\\r"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.add_char buf '"';
  Buffer.contents buf

(* A key for finding arrays that may repeat one another: the length and
   the bits of three elements.  Candidates are then compared in full. *)
let sample_key a =
  let n = Array.length a in
  let bits i = Int64.bits_of_float (Array.unsafe_get a i) in
  if n = 0 then 0 else Hashtbl.hash (n, bits 0, bits (n / 2), bits (n - 1))

(* Bit equality: equal floats have equal bits except [0.0] and [-0.0],
   told apart by their reciprocals; the rest (NaNs included) compare
   their bits.  So [-0.0] never stands for [0.0]. *)
let same_bits a b =
  let rec from i =
    i = Array.length a
    ||
    let x = Array.unsafe_get a i and y = Array.unsafe_get b i in
    (if x = y then x <> 0.0 || 1.0 /. x = 1.0 /. y
     else Int64.equal (Int64.bits_of_float x) (Int64.bits_of_float y))
    && from (i + 1)
  in
  a == b || (Array.length a = Array.length b && from 0)

let floats_bound a =
  let n = ref (Array.length a + 2) in
  for i = 0 to Array.length a - 1 do
    n := !n + bound_of_abs (Float.abs (Array.unsafe_get a i))
  done;
  !n

type out = { mutable bytes : Bytes.t; mutable pos : int }

(* Grows the buffer when the bound was short; with the bound from
   [to_string]'s first pass it never does. *)
let reserve o n =
  if o.pos + n > Bytes.length o.bytes then begin
    let b = Bytes.create (Int.max (2 * Bytes.length o.bytes) (o.pos + n)) in
    Bytes.blit o.bytes 0 b 0 o.pos;
    o.bytes <- b
  end

let put_char o c =
  reserve o 1;
  Bytes.unsafe_set o.bytes o.pos c;
  o.pos <- o.pos + 1

let put_string o s =
  let n = String.length s in
  reserve o n;
  Bytes.blit_string s 0 o.bytes o.pos n;
  o.pos <- o.pos + n

let put_floats o x a =
  put_char o '[';
  for i = 0 to Array.length a - 1 do
    if o.pos + 25 > Bytes.length o.bytes then reserve o 25;
    let b = o.bytes and pos = o.pos in
    if i > 0 then Bytes.unsafe_set b pos ',';
    o.pos <- write_float b (pos + Bool.to_int (i > 0)) x a i
  done;
  put_char o ']'

let to_string t =
  let x, _ = Domain.DLS.get scratch in
  (* First pass: the length bound, and for the [i]-th [Floats] node in
     document order the first node with the same bits ([i] itself when
     none came before). *)
  let seen = Hashtbl.create 16 and firsts = ref [] and count = ref 0 in
  let rec bound = function
    | Null -> 4
    | Bool _ -> 5
    | Int _ -> 20
    | Float f -> bound_of_abs (Float.abs f)
    | String s -> (6 * String.length s) + 2
    | Verbatim s -> String.length s
    | List items -> List.fold_left (fun n v -> n + 1 + bound v) 2 items
    | Obj fields ->
        List.fold_left
          (fun n (k, v) -> n + 4 + (6 * String.length k) + bound v)
          2 fields
    | Floats a ->
        let i = !count and h = sample_key a in
        incr count;
        (match
           List.find_opt (fun (b, _) -> same_bits a b) (Hashtbl.find_all seen h)
         with
        | Some (_, j) -> firsts := j :: !firsts
        | None ->
            Hashtbl.add seen h (a, i);
            firsts := i :: !firsts);
        floats_bound a
  in
  let o = { bytes = Bytes.create (bound t + 32); pos = 0 } in
  let firsts = Array.of_list (List.rev !firsts) in
  (* Where each first occurrence was rendered: [start, stop) pairs. *)
  let spans = Array.make (2 * Array.length firsts) 0 and next = ref 0 in
  let rec emit = function
    | Null -> put_string o "null"
    | Verbatim s -> put_string o s
    | Bool b -> put_string o (if b then "true" else "false")
    | Int i -> put_string o (string_of_int i)
    | Float f ->
        reserve o 24;
        o.pos <- write_float o.bytes o.pos x [| f |] 0
    | String s -> put_string o (quoted s)
    | Floats a ->
        let i = !next in
        incr next;
        let j = firsts.(i) in
        if j = i then begin
          spans.(2 * i) <- o.pos;
          put_floats o x a;
          spans.((2 * i) + 1) <- o.pos
        end
        else begin
          let start = spans.(2 * j) in
          let len = spans.((2 * j) + 1) - start in
          reserve o len;
          Bytes.blit o.bytes start o.bytes o.pos len;
          o.pos <- o.pos + len
        end
    | List items ->
        put_char o '[';
        List.iteri
          (fun i item ->
            if i > 0 then put_char o ',';
            emit item)
          items;
        put_char o ']'
    | Obj fields ->
        put_char o '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then put_char o ',';
            put_string o (quoted k);
            put_char o ':';
            emit v)
          fields;
        put_char o '}'
  in
  emit t;
  Bytes.sub_string o.bytes 0 o.pos

(* --- parsing --------------------------------------------------------

   A recursive-descent parser for the subset this library emits (plus
   standard JSON escapes), so tooling like the bench-trend gate can
   read its own history files back without an external dependency.
   Numbers with a '.', exponent, or out-of-int range parse as [Float],
   everything else as [Int]; [Verbatim] never comes back (it re-parses
   as its structure). *)

exception Parse_error of string

let parse_error pos msg =
  raise (Parse_error (Printf.sprintf "offset %d: %s" pos msg))

let of_string s =
  let n = String.length s in
  let pos = ref 0 in
  let peek () = if !pos < n then Some s.[!pos] else None in
  let advance () = incr pos in
  let skip_ws () =
    while
      !pos < n
      && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
    do
      advance ()
    done
  in
  let expect c =
    if !pos >= n || s.[!pos] <> c then
      parse_error !pos (Printf.sprintf "expected %C" c);
    advance ()
  in
  let literal word value =
    let l = String.length word in
    if !pos + l <= n && String.sub s !pos l = word then begin
      pos := !pos + l;
      value
    end
    else parse_error !pos (Printf.sprintf "expected %s" word)
  in
  let parse_string () =
    expect '"';
    let buf = Buffer.create 16 in
    let rec go () =
      if !pos >= n then parse_error !pos "unterminated string"
      else
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
            advance ();
            if !pos >= n then parse_error !pos "unterminated escape";
            (match s.[!pos] with
            | '"' -> Buffer.add_char buf '"'
            | '\\' -> Buffer.add_char buf '\\'
            | '/' -> Buffer.add_char buf '/'
            | 'b' -> Buffer.add_char buf '\b'
            | 'f' -> Buffer.add_char buf '\012'
            | 'n' -> Buffer.add_char buf '\n'
            | 'r' -> Buffer.add_char buf '\r'
            | 't' -> Buffer.add_char buf '\t'
            | 'u' ->
                if !pos + 4 >= n then parse_error !pos "truncated \\u escape";
                let hex = String.sub s (!pos + 1) 4 in
                let code =
                  try int_of_string ("0x" ^ hex)
                  with Failure _ -> parse_error !pos "bad \\u escape"
                in
                (* Code points below 0x80 map to one byte; everything
                   else is re-encoded as UTF-8. *)
                if code < 0x80 then Buffer.add_char buf (Char.chr code)
                else if code < 0x800 then begin
                  Buffer.add_char buf (Char.chr (0xc0 lor (code lsr 6)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end
                else begin
                  Buffer.add_char buf (Char.chr (0xe0 lor (code lsr 12)));
                  Buffer.add_char buf
                    (Char.chr (0x80 lor ((code lsr 6) land 0x3f)));
                  Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3f)))
                end;
                pos := !pos + 4
            | c -> parse_error !pos (Printf.sprintf "bad escape %C" c));
            advance ();
            go ()
        | c ->
            Buffer.add_char buf c;
            advance ();
            go ()
    in
    go ();
    Buffer.contents buf
  in
  let parse_number () =
    let start = !pos in
    let is_num_char = function
      | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
      | _ -> false
    in
    while !pos < n && is_num_char s.[!pos] do
      advance ()
    done;
    let raw = String.sub s start (!pos - start) in
    let is_floaty =
      String.exists (function '.' | 'e' | 'E' -> true | _ -> false) raw
    in
    if is_floaty then
      match float_of_string_opt raw with
      | Some f -> Float f
      | None -> parse_error start (Printf.sprintf "bad number %S" raw)
    else
      match int_of_string_opt raw with
      | Some i -> Int i
      | None -> (
          match float_of_string_opt raw with
          | Some f -> Float f
          | None -> parse_error start (Printf.sprintf "bad number %S" raw))
  in
  let rec parse_value () =
    skip_ws ();
    match peek () with
    | None -> parse_error !pos "unexpected end of input"
    | Some '"' -> String (parse_string ())
    | Some 't' -> literal "true" (Bool true)
    | Some 'f' -> literal "false" (Bool false)
    | Some 'n' -> literal "null" Null
    | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
    | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
    | Some _ -> parse_number ()
  in
  let v = parse_value () in
  skip_ws ();
  if !pos <> n then parse_error !pos "trailing characters";
  v

let member key = function
  | Obj fields -> List.assoc_opt key fields
  | _ -> None

let to_float_opt = function
  | Float f -> Some f
  | Int i -> Some (float_of_int i)
  | _ -> None

let to_int_opt = function Int i -> Some i | _ -> None

let to_string_opt = function String s -> Some s | _ -> None
