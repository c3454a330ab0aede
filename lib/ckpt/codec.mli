(** Self-describing binary checkpoint container.

    A checkpoint file is a magic string, a format version, and a list
    of named sections, each carrying its own length and CRC-32:

    {v
      "RLACKPT1"  (8 bytes)
      version     (8-byte big-endian int)
      n_sections  (8-byte big-endian int)
      n times:
        name      (length-prefixed string)
        length    (8-byte big-endian int)
        crc32     (8-byte big-endian int, CRC-32 of the payload)
        payload   (length bytes)
    v}

    Readers that do not understand a section can skip it by length;
    corruption is detected per section, so {!decode} can report
    {e which} part of a damaged file is bad.  All scalars inside
    payloads use the {!section:primitives} below — in particular
    floats travel as their IEEE-754 bit patterns, so a round trip is
    bit-exact (NaNs included).

    Decoding never raises: truncated, mislabeled or corrupt input
    comes back as a typed {!error}. *)

val version : int
(** Current format version; bumped on any incompatible layout change.
    Files with a different version are rejected ({!Bad_version})
    rather than misread. *)

type error =
  | Truncated  (** Input ends before the announced structure does. *)
  | Bad_magic  (** Not a checkpoint file. *)
  | Bad_version of int  (** A checkpoint, but from format [n]. *)
  | Crc_mismatch of string  (** Named section failed its CRC. *)
  | Malformed of string  (** Structural parse error (description). *)

val error_to_string : error -> string

type section = { name : string; payload : string }

val encode : section list -> string

val decode : string -> (section list, error) result

val save_file : path:string -> section list -> unit
(** Streams the header and each payload to [path ^ ".tmp"], then
    renames it to [path], so a crash mid-write never leaves a truncated
    file under the final name.  When the write or the rename fails, the
    temporary file is removed and the exception re-raised. *)

val load_file : path:string -> (section list, error) result
(** Never raises: a missing or unreadable file maps to
    [Error (Malformed <os message>)], a short read to [Error Truncated]. *)

val crc32 : string -> int64
(** CRC-32 (IEEE 802.3 polynomial) of the whole string, computed eight
    bytes per step (slicing-by-8: eight 256-entry tables, two 32-bit
    little-endian reads per step, the last [length mod 8] bytes one at
    a time).  The values are those of the byte-at-a-time algorithm. *)

(** {1:primitives Payload primitives}

    Writers append to a [Buffer.t]; readers consume a cursor and raise
    the internal {!Parse} exception on malformed input, which
    {!decode}-level callers convert with {!parse_payload}. *)

exception Parse of string

type reader

val reader : string -> reader

val at_end : reader -> bool

val parse_payload : section -> (reader -> 'a) -> ('a, error) result
(** Run a decoder over a section payload, mapping {!Parse} (and any
    stray [Invalid_argument]) to [Error (Malformed ...)].  Fails with
    [Malformed] as well when the decoder leaves trailing bytes. *)

val w_i64 : Buffer.t -> int64 -> unit

val w_int : Buffer.t -> int -> unit

val w_f64 : Buffer.t -> float -> unit

val w_bool : Buffer.t -> bool -> unit

val w_string : Buffer.t -> string -> unit

val w_option : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a option -> unit

val w_list : (Buffer.t -> 'a -> unit) -> Buffer.t -> 'a list -> unit

val w_pair :
  (Buffer.t -> 'a -> unit) ->
  (Buffer.t -> 'b -> unit) ->
  Buffer.t ->
  'a * 'b ->
  unit

val r_i64 : reader -> int64

val r_int : reader -> int

val r_f64 : reader -> float

val r_bool : reader -> bool

val r_string : reader -> string

val r_option : (reader -> 'a) -> reader -> 'a option

val r_list : (reader -> 'a) -> reader -> 'a list

val r_pair : (reader -> 'a) -> (reader -> 'b) -> reader -> 'a * 'b
