type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Verbatim of string

(* --- exact float printing ---------------------------------------------

   A finite normal float is [f = ±m·2^e] with [2^52 <= m < 2^53] and
   [e >= -1074].  For a decimal scale [k >= 0], [f·10^k = m·5^k / 2^s]
   with [s = -(e+k)], so rounding [f] to [k] decimals is an integer
   division of [X = m·5^k], computed exactly in 62-bit limbs.  See
   json.mli for the domain and why the result equals the [%g]
   definition. *)

(* The largest scale: [%.17g] of a float below 1e-307 rounds at
   [k = 16 + 308]. *)
let kmax = 324

let mask31 = (1 lsl 31) - 1

(* 5^k for 0 <= k <= kmax as little-endian 62-bit limbs followed by one
   zero limb, built from 31-bit halves multiplied by 5. *)
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

(* Unchecked limb access: [scaled]'s guards [k <= kmax] and [s <= 1074]
   bound every index by the table row and the scratch length. *)
external ( .%() ) : int array -> int -> int = "%array_unsafe_get"

external ( .%()<- ) : int array -> int -> int -> unit = "%array_unsafe_set"

(* [scaled x m e k] rounds [m·2^e·10^k] to the nearest integer [N], ties
   to even, and returns [2N+1] when the decimal [N·10^-k] lies within
   half a unit in the last place of [m·2^e] (so it reads back as
   [m·2^e], given [m <> 2^52]), [2N] when it does not.  Returns a
   negative value unless [0 <= k <= kmax], [1 <= s <= 1074] for
   [s = -(e+k)], and [N < 2^61].  [x] is scratch for the limbs of [X].

   The distance [d = |N·2^s - X|] reads back iff [2d < 5^k], i.e.
   [d <= 5^k lsr 1] as [5^k] is odd; for the same reason a tie with
   the half-unit bound, which [strtod] would break to even, cannot
   occur. *)
let scaled x m e k =
  let s = -(e + k) in
  if k < 0 || k > kmax || s < 1 || s > 1074 then -1
  else begin
    let q = pow5.(k) in
    let n = Array.length q - 1 in
    (* X = q·m, each limb product taken in 31-bit halves; every sum is
       below 2^63, so exact in the unsigned reading of the 63 bits. *)
    let mh = m lsr 31 and ml = m land mask31 and c = ref 0 in
    for i = 0 to n - 1 do
      let qh = q.%(i) lsr 31 and ql = q.%(i) land mask31 in
      let mid = (qh * ml) + (ql * mh) in
      let low = (ql * ml) + ((mid land mask31) lsl 31) in
      let t = (low land max_int) + !c in
      x.%(i) <- t land max_int;
      c := (qh * mh) + (mid lsr 31) + (low lsr 62) + (t lsr 62)
    done;
    x.%(n) <- !c;
    (* N = X lsr s, below 2^61 iff X lsr (s + 61) = 0. *)
    let a = s / 62 and b = s mod 62 and a61 = (s + 61) / 62 in
    for i = n + 1 to a + 1 do
      x.%(i) <- 0
    done;
    let fits = ref (x.%(a61) lsr ((s + 61) mod 62) = 0) in
    for i = a61 + 1 to n do
      if x.%(i) <> 0 then fits := false
    done;
    if not !fits then -1
    else
      let n0 = (x.%(a) lsr b) lor (x.%(a + 1) lsl (62 - b)) in
      (* Up iff bit s-1 of X is set and a lower one is or N is odd.  As
         5^k is odd, X has a set bit below s-1 iff m does; m < 2^53, so
         capping the mask at 62 bits keeps the shift defined. *)
      let up =
        (x.%((s - 1) / 62) lsr ((s - 1) mod 62))
        land (Bool.to_int (m land ((1 lsl Int.min (s - 1) 62) - 1) <> 0) lor n0)
        land 1
      in
      (* With r = X mod 2^s: down, d = r and the test is r <= h for
         h = 5^k lsr 1; up, d = 2^s - r = ~r + 1 for the s-bit
         complement ~r, and the test is ~r < h.  [flip] turns r into ~r
         limb by limb; the compare runs from the top limb down. *)
      let low = (1 lsl b) - 1 and flip = -up in
      let i = ref (Int.max a (n - 1)) and cmp = ref 0 in
      while !cmp = 0 && !i >= 0 do
        let j = !i in
        let bits = if j < a then max_int else if j = a then low else 0 in
        let h =
          if j < n then (q.%(j) lsr 1) lor ((q.%(j + 1) land 1) lsl 61) else 0
        in
        cmp := Int.compare ((x.%(j) lxor flip) land bits) h;
        decr i
      done;
      ((n0 + up) lsl 1) lor Bool.to_int (!cmp + up <= 0)
  end

(* 10^j for -307 <= j <= 15, as the nearest doubles, at index
   [j + 307]. *)
let tens =
  Array.init 323 (fun i -> float_of_string (Printf.sprintf "1e%d" (i - 307)))

(* Per-domain scratch: the limbs of [X], zero-filled up to index
   [s / 62 + 1], and the bytes of one number (at most 24, as in
   [-1.0000000000000002e-300]), assembled right to left and copied to
   the output in one blit.  Printing allocates nothing. *)
let scratch =
  Domain.DLS.new_key (fun () ->
      (Array.make ((1074 / 62) + 2) 0, Bytes.create 24))

(* [put_digits b n first last dot] writes [n]'s low decimal digits into
   [b.[first..last]], least significant at [last], zero padded on the
   left, with a '.' at index [dot] ([-1] for none).  Every division is
   by the constant 10. *)
let put_digits b n first last dot =
  let n = ref n in
  for i = last downto first do
    if i = dot then Bytes.unsafe_set b i '.'
    else begin
      Bytes.unsafe_set b i (Char.unsafe_chr (48 + (!n mod 10)));
      n := !n / 10
    end
  done

(* The number of decimal digits of [n >= 0], counting from [d]. *)
let rec digit_count n d =
  if d <= 18 && n >= pow10.(d) then digit_count n (d + 1) else d

(* [-]n·10^-decimals with exactly [decimals] digits after the point. *)
let add_point buf b ~neg n decimals =
  let first = Bool.to_int neg in
  if neg then Bytes.unsafe_set b 0 '-';
  let digits = max (digit_count n 1) (decimals + 1) in
  let last = first + digits - Bool.to_int (decimals = 0) in
  put_digits b n first last (if decimals = 0 then -1 else last - decimals);
  Buffer.add_subbytes buf b 0 (last + 1)

(* Appends [%.{p}g] of a value whose rounding to [p] digits is
   [n·10^(e10-p+1)], [10^(p-1) <= n <= 10^p]; [n = 10^p] is a carry into
   exponent [e10+1].  Trailing zeros are stripped; the layout is fixed
   for [-4 <= e10 < p], [d.ddde±XX] otherwise, with a third exponent
   digit from [e10 <= -100].  The value reads back as a non-integral
   float, so in fixed layout digits follow the point, and
   [e10 < 100]. *)
let add_g buf b ~neg n p e10 =
  let carry = n = pow10.(p) in
  let e10 = if carry then e10 + 1 else e10 in
  let n = ref (if carry then pow10.(p - 1) else n) and len = ref p in
  while !len > 1 && !n mod 10 = 0 do
    n := !n / 10;
    decr len
  done;
  let n = !n and len = !len in
  let first = Bool.to_int neg in
  if neg then Bytes.unsafe_set b 0 '-';
  let stop =
    if e10 < -4 || e10 >= p then begin
      let last = if len > 1 then first + len else first in
      put_digits b n first last (if len > 1 then first + 1 else -1);
      Bytes.unsafe_set b (last + 1) 'e';
      Bytes.unsafe_set b (last + 2) (if e10 < 0 then '-' else '+');
      let stop = last + if e10 <= -100 then 6 else 5 in
      put_digits b (abs e10) (last + 3) (stop - 1) (-1);
      stop
    end
    else if e10 < 0 then begin
      (* 0.000ddd: the zeros are [put_digits]' left padding. *)
      Bytes.unsafe_set b first '0';
      Bytes.unsafe_set b (first + 1) '.';
      let last = first + len - e10 in
      put_digits b n (first + 2) last (-1);
      last + 1
    end
    else begin
      put_digits b n first (first + len) (first + e10 + 1);
      first + len + 1
    end
  in
  Buffer.add_subbytes buf b 0 stop

(* The 16 -> 15 / 17 order of json.mli for [±m·2^e] with decimal
   exponent [e10]; [false] when a step leaves [scaled]'s range and
   nothing was written. *)
let add_shortest buf ~neg m e e10 =
  let x, digits = Domain.DLS.get scratch in
  let r16 = scaled x m e (15 - e10) in
  if r16 < 0 then false
  else
    let r =
      if r16 land 1 = 1 then scaled x m e (14 - e10)
      else scaled x m e (16 - e10)
    in
    if r < 0 then false
    else begin
      if r16 land 1 = 0 then add_g buf digits ~neg (r lsr 1) 17 e10
      else if r land 1 = 1 then add_g buf digits ~neg (r lsr 1) 15 e10
      else add_g buf digits ~neg (r16 lsr 1) 16 e10;
      true
    end

(* The significand [m] and exponent [e] of a normal float whose low 63
   bits are [b], so that [|f| = m·2^e]. *)
let significand b = b land 0xF_FFFF_FFFF_FFFF lor 0x10_0000_0000_0000

let exponent_of b = ((b lsr 52) land 0x7ff) - 1075

(* The defining search: the smallest precision p in 1..17 whose
   "%.{p}g" reads back as [f]. *)
let add_searched buf f =
  let rec go p =
    if p > 17 then Printf.sprintf "%.17g" f
    else
      let s = Printf.sprintf "%.*g" p f in
      if float_of_string s = f then s else go (p + 1)
  in
  Buffer.add_string buf (go 1)

let add_fixed buf decimals f =
  let a = Float.abs f and x, digits = Domain.DLS.get scratch in
  let r =
    if decimals < 0 || decimals > 17 then -1
    else if a = 0.0 then 0
    else if a < Float.min_float then -1
    else
      let b = Int64.to_int (Int64.bits_of_float f) in
      scaled x (significand b) (exponent_of b) decimals
  in
  if r < 0 then Buffer.add_string buf (Printf.sprintf "%.*f" decimals f)
  else add_point buf digits ~neg:(Float.sign_bit f) (r lsr 1) decimals

let add_float buf f =
  if not (Float.is_finite f) then Buffer.add_string buf "null"
  else
    let a = Float.abs f in
    if Float.is_integer f && a < 1e15 then add_fixed buf 1 f
    else
      let b = Int64.to_int (Int64.bits_of_float f) in
      if
        not
          (a >= Float.min_float && a < 1e15 && b land 0xF_FFFF_FFFF_FFFF <> 0)
      then add_searched buf f
      else
        (* The decimal exponent is g or g+1, g = floor(log10 2^(e+52)).
           The double nearest 10^(g+1) decides it, except when [a] is
           that double: a negative power of ten is inexact. *)
        let g = ((((b lsr 52) land 0x7ff) - 1023) * 78913) asr 18 in
        let t = tens.(g + 308) in
        if
          a = t
          || not
               (add_shortest buf ~neg:(Float.sign_bit f) (significand b)
                  (exponent_of b)
                  (if a > t then g + 1 else g))
        then add_searched buf f

let escape buf s =
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
  Buffer.add_char buf '"'

let rec emit buf = function
  | Null -> Buffer.add_string buf "null"
  | Verbatim s -> Buffer.add_string buf s
  | Bool b -> Buffer.add_string buf (if b then "true" else "false")
  | Int i -> Buffer.add_string buf (string_of_int i)
  | Float f -> add_float buf f
  | String s -> escape buf s
  | List items ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i item ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf item)
        items;
      Buffer.add_char buf ']'
  | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          escape buf k;
          Buffer.add_char buf ':';
          emit buf v)
        fields;
      Buffer.add_char buf '}'

let to_string t =
  let buf = Buffer.create 256 in
  emit buf t;
  Buffer.contents buf

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
