(** In-source lint annotations.

    Grammar (inside an ordinary OCaml comment):
    {v
      (* lint: allow <rule> -- <reason> *)        suppresses <rule> on
                                                  this line and the next
      (* lint: allow-file <rule> -- <reason> *)   suppresses <rule> for
                                                  the whole file
      (* lint: hot <function> -- <reason> *)      declares the named
                                                  function a hot path;
                                                  alloc-hot flags
                                                  allocation constructs
                                                  in it and in the
                                                  same-file functions it
                                                  calls
    v}
    The reason is mandatory everywhere; malformed annotations and
    unknown rule names come back as [bad-annotation] findings. *)

type t = { line : int; rule : string; file_wide : bool; reason : string }

type hot = { hot_line : int; target : string; hot_reason : string }
(** A [(* lint: hot Pool.release -- <reason> *)] directive: [target] is
    the dotted binding path of a function defined by the
    file that carries the annotation. *)

val collect :
  file:string ->
  valid_rules:string list ->
  string ->
  t list * hot list * Finding.t list
(** Scans raw source text (string, quoted-string and char literals and
    nested comments are understood) and returns the well-formed
    suppressions, the hot declarations, and a [bad-annotation] finding
    for each malformed directive. *)

val is_ident_char : char -> bool
(** Whether the character can occur in an OCaml identifier. *)

val code_only : string -> string
(** [src] with its comments, string literals and quoted strings blanked
    to spaces, so that a name mentioned only in prose or data can be
    told from a use. *)

val suppresses : t -> Finding.t -> bool
(** Whether an annotation silences a finding: same rule, and file-wide
    or located on the finding's line or the line above. *)
