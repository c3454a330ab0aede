(** Self-describing binary checkpoint container, and the typed codecs
    its section payloads are written in.

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
    corruption is detected per section, so {!load_file} can report
    {e which} part of a damaged file is bad.  Payloads are written and
    read with the {!section:codecs} below — in particular floats travel
    as their IEEE-754 bit patterns, so a round trip is bit-exact (NaNs
    included).

    Loading never raises: truncated, mislabeled or corrupt input —
    including a length word so large that it points past the end of the
    file — comes back as a typed {!error}. *)

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

(** {1:codecs Codecs}

    An ['a t] holds both directions of one layout: the writer and the
    reader are built from the same description, so the field order is
    stated once.  Every scalar is an 8-byte big-endian word except
    [bool], which is one byte. *)

type 'a t

val int : int t

val i64 : int64 t

val f64 : float t
(** The IEEE-754 bit pattern as an [i64]. *)

val bool : bool t

val string : string t
(** Length ([int]), then the bytes. *)

val option : 'a t -> 'a option t
(** A [bool] presence flag, then the value. *)

val list : 'a t -> 'a list t
(** Length ([int]), then the elements in order. *)

val floats : float array t
(** Length ([int]), then one [f64] word per element, moved in a plain
    loop with no per-element allocation. *)

val pair : 'a t -> 'b t -> ('a * 'b) t

(** {2 Records}

    A record codec lists each field once, with its codec and its
    getter; the writer emits the fields in that order and the reader
    reads them in that order (the operators sequence the reads, so
    OCaml's right-to-left evaluation of tuples does not apply):

    {[
      open Codec.Syntax

      let ewma =
        Codec.record
          (let+ s_avg = Codec.field Codec.f64 (fun s -> s.Ewma.s_avg)
           and+ s_samples = Codec.field Codec.int (fun s -> s.Ewma.s_samples) in
           { Ewma.s_avg; s_samples })
    ]} *)

type ('r, 'a) fields

val field : 'a t -> ('r -> 'a) -> ('r, 'a) fields

val record : ('r, 'r) fields -> 'r t

(** The binding operators the record builder above is written with. *)
module Syntax : sig
  val ( let+ ) : ('r, 'a) fields -> ('a -> 'b) -> ('r, 'b) fields

  val ( and+ ) : ('r, 'a) fields -> ('r, 'b) fields -> ('r, 'a * 'b) fields
end

(** {2 Variants}

    A variant is an [int] tag followed by that constructor's payload.
    Each constructor is one {!case}: its tag, its payload codec, how to
    build the value from the payload and how to take it back apart. *)

type 'a case

val case : int -> 'b t -> ('b -> 'a) -> ('a -> 'b option) -> 'a case

val const : int -> 'a -> 'a case
(** A constant constructor: the tag alone, matched with [==]. *)

val variant : string -> 'a case list -> 'a t
(** The name appears in the error for an unknown tag ("bad NAME tag
    N").  Writing a value no case matches raises [Invalid_argument]. *)

(** {1 Sections and files} *)

type section
(** A named payload: freshly encoded by {!section}, or a range of the
    file string {!load_file} read (decoded in place, never copied). *)

val section : string -> 'a t -> 'a -> section

val name : section -> string

val payload : section -> string
(** A copy of the payload bytes. *)

val read : 'a t -> section -> ('a, error) result
(** Decode a section's payload.  Never raises: a short, overlong or
    malformed payload is [Error (Malformed ...)], naming the section;
    a count (string, list or array length) larger than the bytes left
    in the payload is rejected before anything is allocated. *)

val save_file : path:string -> section list -> unit
(** Streams the header and each payload to [path ^ ".tmp"], then
    renames it to [path], so a crash mid-write never leaves a truncated
    file under the final name.  When the write or the rename fails, the
    temporary file is removed and the exception re-raised. *)

val load_file : path:string -> (section list, error) result
(** Reads the file into one string, checks each section's CRC over its
    range of that string and returns sections that point into it.
    Never raises: a missing or unreadable file maps to
    [Error (Malformed <os message>)], a short read to [Error Truncated]. *)

val crc32 : string -> int64
(** CRC-32 (IEEE 802.3 polynomial) of the whole string, computed eight
    bytes per step (slicing-by-8: eight 256-entry tables, two 32-bit
    little-endian reads per step, the last [length mod 8] bytes one at
    a time).  The values are those of the byte-at-a-time algorithm. *)
