(** Minimal JSON document builder and reader (no external dependency).

    Floats are printed with the shortest decimal representation that
    round-trips, so two runs producing bit-identical numbers produce
    byte-identical JSON; non-finite floats serialize as [null].

    The printed form of a finite float [f] is defined as the first of
    [%.1g], [%.2g], ..., [%.17g] that parses back to [f], except that an
    integral [f] with [|f| < 1e15] prints as [%.1f] (["54.0"]).

    {b How it is computed.}  Integral values below [1e15] print as
    {!add_fixed} at one decimal, whose [N = 10·|f|] is exact.  A
    normal, non-integral [f = ±m·2^e] with [|f| < 1e15] (so
    [Float.min_float <= |f|]) whose significand [m] is not [2^52]
    (not a power of two) goes through an exact integer kernel that
    calls neither [printf] nor [strtod]:
    - its decimal exponent [e10 = floor(log10 |f|)] is [g] or [g+1],
      [g = floor((e+52)·log10 2)]; comparing [|f|] with the double
      nearest [10^(g+1)] decides which (a float equal to that double,
      an inexact negative power of ten, takes the search below);
    - to round [f] to [p] significant digits it sets [k = p-1-e10] and
      [s = -(e+k)] (here [0 <= k <= 324] and [1 <= s <= 1074]), forms
      [X = m·5^k] exactly in 62-bit limbs (a table of [5^k] built at
      start-up, times [m]) and rounds [N = X / 2^s] half to even on the
      exact remainder; [N = 10^p] is a carry into exponent [e10+1];
    - the [p]-digit decimal reads back as [f] iff
      [2·|N·2^s - X| < 5^k], compared limb by limb from the top;
    - it tries [p = 16]; if that reads back it tries [15] and keeps it
      when it reads back too; otherwise the answer is [17];
    - the digits are laid out as [%g] does: trailing zeros stripped,
      exponent notation iff [e10 < -4] or [e10 >= p], with a signed
      exponent of at least two digits (three when [e10 <= -100]).  The
      limbs and the at most 24 bytes of a number
      ([-1.0000000000000002e-300]) live in per-domain scratch, and the
      bytes are copied into the output in one blit, so printing
      allocates nothing.
    Every other finite float (powers of two, subnormals, non-integral
    or integral [|f| >= 1e15]) takes the defining [%.1g] .. [%.17g]
    search.

    {b Why the kernel prints the same bytes.}
    - Same digits: [%.{p}g] prints [f] correctly rounded to [p] digits,
      ties to even, which is [N]; the exact remainder decides the
      rounding, and [%g]'s choice of layout uses the exponent after
      rounding, which is [e10], or [e10+1] after a carry.
    - Same round-trip verdict: [strtod] maps a decimal to the nearest
      double, so the decimal reads back as [f] iff it lies within half
      an ulp ([2^(e-1)]) of [f], the interval being symmetric because
      [m <> 2^52]; scaled by [2^s·10^k] that is the test above.  A tie
      would need [2·|N·2^s - X| = 5^k], impossible as [5^k] is odd.
    - Same precision: any decimal of 15 or fewer significant digits that
      rounds to a normal double comes back unchanged from [%.15g] of
      that double (15 is [DBL_DIG]), and [%g] strips trailing zeros, so
      when [%.15g] reads back it is the shortest form.  A 16-digit
      rounding is never further from [f] than a shorter one, so with a
      symmetric interval it reads back whenever a shorter one does;
      when it does not, [17] digits are needed, and always suffice.
      Powers of two (the gap below is half the gap above, e.g.
      [2^-645]) and subnormals (where [DBL_DIG] does not hold) break
      this argument, hence their fallback. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Verbatim of string
      (** A pre-serialized JSON fragment, emitted as-is.  Lets a
          resumable sweep splice rows persisted by an earlier process
          into a new document byte-exactly. *)

val to_string : t -> string

val add_float : Buffer.t -> float -> unit
(** Appends [f] exactly as [to_string (Float f)] renders it. *)

val add_fixed : Buffer.t -> int -> float -> unit
(** [add_fixed buf d f] appends [Printf.sprintf "%.*f" d f].  For
    [0 <= d <= 17], zeros and the normal values with
    [|f| < 2^(52-d)] and [|f|·10^d < 2^61] go through the
    same kernel at the fixed scale [k = d]:
    [N = round_half_even(m·5^d / 2^s)], printed as [N / 10^d], a point
    and [d] zero-padded digits.  The rest go to [Printf]. *)

(** {2 Parsing}

    Recursive-descent reader for the documents this module emits (and
    standard JSON generally), so tooling — e.g. the bench-trend gate —
    can read its own output back without an external dependency. *)

exception Parse_error of string

val of_string : string -> t
(** Parse one JSON document; raises {!Parse_error} on malformed input
    or trailing characters.  Numbers with a fraction or exponent come
    back as [Float], others as [Int]; [Verbatim] is never produced. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_float_opt : t -> float option
(** [Float] or [Int] as a float. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option
