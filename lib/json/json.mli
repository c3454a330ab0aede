(** Minimal JSON document builder and reader (no external dependency).

    Floats are printed with the shortest decimal representation that
    round-trips, so two runs producing bit-identical numbers produce
    byte-identical JSON; non-finite floats serialize as [null].

    The printed form of a finite float [f] is defined as the first of
    [%.1g], [%.2g], ..., [%.17g] that parses back to [f], except that an
    integral [f] with [|f| < 1e15] prints as [%.1f] (["54.0"]).

    {b How it is computed.}  Non-finite floats, zeros and integral
    values below [1e15] are read from the bits: an integral
    [|f| = m·2^e] prints the digits of [m lsr -e] and [".0"].  A normal,
    non-integral [f = ±m·2^e] with [|f| < 1e15] (so
    [Float.min_float <= |f|]) whose significand [m] is not [2^52] (not a
    power of two) goes through an exact integer kernel that calls
    neither [printf] nor [strtod] and makes one exact scaling:
    - with [g = floor((e+52)·log10 2)] (computed as
      [(e+52)·78913 asr 18], exact for every binary exponent) and
      [k = 16-g], [s = -(e+k)], the value [v = |f|·10^k = X / 2^s],
      [X = m·5^k], lies in [[10^16, 10^18)]; [X] is formed exactly in
      62-bit limbs (a table of [5^k] built at start-up, times [m]) and
      split as [X = q·2^s + r].  [q] has 17 digits (the decimal
      exponent [e10] is [g]) or 18 ([g+1], and [q] is divided by 10,
      its last digit joining the fraction);
    - the roundings of [f] to 15, 16 and 17 significant digits are the
      roundings of [v] at that scale, half to even, decided by the
      digits of [q] below the kept ones and by [r] ([r <> 0] iff [m]
      has a set bit below [s], as [5^k] is odd);
    - with the half unit [H = 2^(e-1)·10^k = 5^k / 2^(s+1)], a candidate
      [c] (a rounding times its power of ten) reads back as [f] iff
      [floor(v - H) < c <= floor(v + H)].  Splitting [5^k] as
      [hq·2^(s+1) + hr] gives the two bounds as [q - hq - (2r < hr)] and
      [q + hq + (2r + hr >= 2^(s+1))]: native arithmetic on two limbs
      when [5^k] is one limb and [s <= 60] (every [|f| >= 2^-33]), a
      comparison of [r] with [hr lsr 1] limb by limb otherwise;
    - it writes the first of the 15-, 16- and 17-digit roundings that
      reads back, all three computed and the choice made without
      branches (it depends on the digits), scaled back to 17 digits;
    - the 17 digits are written two at a time from a table: [n] splits
      into a leading digit and two groups of eight by two divisions by
      [10^8], and each group's four pairs come from one multiplication
      by [ceil(2^47 / 10^6)] and three by 100 in 47-bit fixed point
      (jeaiii's method: the reciprocal's excess, below
      [10^8 / 2^47 < 10^-6] of a pair unit, grows a hundredfold per
      pair and stays below one unit of the last).  They are laid out as
      [%g] does: trailing zeros stripped, exponent notation iff
      [e10 < -4] or [e10 >= p], with a signed exponent of at least two
      digits (three when [|e10| >= 100]).  The limbs live in
      per-domain scratch and the bytes go straight into the output, so
      printing allocates nothing.
    Every other finite float (powers of two, subnormals, non-integral
    or integral [|f| >= 1e15]) takes the defining [%.1g] .. [%.17g]
    search.

    {b Why the kernel prints the same bytes.}
    - Same digits: [%.{p}g] prints [f] correctly rounded to [p] digits,
      ties to even; at the scale [10^k] that is [v] rounded at the
      place [10^(t-p)] for the [t] digits of [q], which the kept digits
      of [q], the dropped ones and [r] decide exactly.  [%g]'s choice
      of layout uses the exponent after rounding, which is [e10], or
      [e10+1] after a carry ([10^p]).
    - Same round-trip verdict: [strtod] maps a decimal to the nearest
      double, so the decimal reads back as [f] iff it lies within half
      an ulp ([2^(e-1)]) of [f], the interval being symmetric because
      [m <> 2^52]; scaled by [10^k] that is [|c - v| < H].  [v ± H] is
      never an integer ([2X ± 5^k] is odd over [2^(s+1)], [s >= 1]), so
      a candidate never sits on the boundary, where [strtod] would
      break the tie to even, and the test is exactly the integer one
      above.
    - Same precision: any decimal of 15 or fewer significant digits
      that rounds to a normal double comes back unchanged from [%.15g]
      of that double (15 is [DBL_DIG]), and [%g] strips trailing
      zeros, so if some [%.{p}g] with [p < 15] reads back, [%.15g]
      prints the same string; the definition's first [p] that reads
      back is therefore the first of 15, 16 and 17, and 17 digits always
      suffice.  A reading-back decimal with [e10 >= p] would be an
      integer below [2^53], which reads back as itself, not as a
      non-integral [f]; so the exponent layout only comes from
      [e10 < -4].  Powers of two (the gap below is half the gap above,
      e.g. [2^-645]) have a lopsided interval, and subnormals (where
      [DBL_DIG] does not hold) break this argument, hence their
      fallback. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list
  | Floats of float array
      (** Rendered exactly as a [List] of [Float]s.  An array whose bits
          equal those of an array rendered earlier in the same document
          is copied from that rendering: the comparison is by bits, so
          [-0.0] never stands for [0.0]. *)
  | Verbatim of string
      (** A pre-serialized JSON fragment, emitted as-is.  Lets a
          resumable sweep splice rows persisted by an earlier process
          into a new document byte-exactly. *)

val to_string : t -> string
(** Renders in one pass into a single buffer sized from a bound taken
    over the tree first: 10 bytes for an integral float below [1e7], 19
    (a sign, 17 digits and a point) for any other in [[1, 1e15)], 24 for
    the rest, six per string byte. *)

val add_fixed : Buffer.t -> int -> float -> unit
(** [add_fixed buf d f] appends [Printf.sprintf "%.*f" d f].  For
    [0 <= d <= 17], zeros, the integral [|f| < 2^53] with
    [|f|·10^d <= max_int] (read from the bits, [N = |f|·10^d]) and the
    normal non-integral values with [|f| < 2^(52-d)] and
    [|f|·10^d < 2^61] go through the same scaling and digit writer as
    the float kernel, at the fixed scale [k = d]:
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
    back as [Float], others as [Int]; [Floats] and [Verbatim] are never
    produced. *)

val member : string -> t -> t option
(** Field lookup on an [Obj]; [None] on missing field or non-object. *)

val to_float_opt : t -> float option
(** [Float] or [Int] as a float. *)

val to_int_opt : t -> int option

val to_string_opt : t -> string option
