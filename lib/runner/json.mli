(** Minimal JSON document builder (no external dependency).

    Floats are printed with the shortest decimal representation that
    round-trips, so two runs producing bit-identical numbers produce
    byte-identical JSON; non-finite floats serialize as [null].

    The printed form of a finite float [f] is defined as the first of
    [%.1g], [%.2g], ..., [%.17g] that parses back to [f], except that an
    integral [f] with [|f| < 1e15] prints as [%.1f] (["54.0"]).  Most
    floats are computed with at most three probes:

    - a normal, non-integral [f] with [|f| < 1e15] whose significand is
      not a power of two tries [%.16g]; if that round-trips it also
      tries [%.15g] and keeps it when it round-trips, otherwise it
      keeps [%.16g]; if [%.16g] fails the answer is [%.17g].
    - integral floats with [|f| >= 1e15], subnormals and powers of two
      take the full [%.1g] .. [%.17g] search.

    Why the fast path prints the same bytes: any decimal of 15 or fewer
    significant digits that rounds to a normal double comes back
    unchanged from [%.15g] of that double (15 is [DBL_DIG]); [%g]
    strips trailing zeros, so the shortest form and [%.15g] are the same
    string.  [%g] only switches to exponent notation when the exponent
    is below -4, which both precisions decide alike, or at least the
    precision, which only happens for integral values.  A 16-digit
    rounding is never further from [f] than a shorter one, so it
    round-trips whenever a shorter one does, provided the rounding
    interval around [f] is symmetric; it is not for powers of two (the
    gap below is half the gap above, e.g. [2^-645]) nor for subnormals
    (where [DBL_DIG] does not hold), hence those fallbacks. *)

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

val pp : Format.formatter -> t -> unit

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
