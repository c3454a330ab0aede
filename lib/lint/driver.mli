(** Linter orchestration: target expansion, rule scoping, suppression,
    rendering.  This is the API both [bin/rla_lint] and the test suite
    drive. *)

open Rla_json

val run : ?rules:string list -> paths:string list -> unit -> Finding.t list
(** Lints every .ml/.mli under [paths] (files or directories).  With
    [?rules], only those rules (plus {!Rules.always_on}) report.
    Raises [Invalid_argument] for unknown rules or missing paths.
    Findings come back sorted and deduplicated, already filtered by
    per-rule directory scope and in-source suppressions. *)

val escape_graph : paths:string list -> unit -> string
(** Builds the cross-module escape graph over [paths] and renders the
    [--graph] listing (see {!Escape.dump}). *)

val render_text : Finding.t list -> string
(** One [file:line rule message] line per finding. *)

val to_json : Finding.t list -> Json.t

val to_sarif : Finding.t list -> Json.t
(** Minimal SARIF 2.1.0 document (one run, registry rule table, one
    result per finding) for [--format sarif]. *)

val exit_code : ?strict:bool -> Finding.t list -> int
(** 1 if any error finding (or, with [strict], any warning), else 0. *)

module For_testing : sig
  (** The interface parser, the scope key and the hot-annotation
      inventory, which the lint tests check against fixtures and the tree's
      own hot paths. *)

  val parse_interface : string -> (Parsetree.signature, string) result
  (** Parses an .mli with compiler-libs. *)

  val scope_key : string -> string option
  (** The scope key {!Rules.in_scope} filters on: ["lib/<sub>"] for files
      under a lib component, the tree name for bin/bench/test/examples,
      [None] otherwise. *)

  val hot_annotations : paths:string list -> unit -> (string * string) list
  (** Every well-formed [(* lint: hot ... *)] directive under [paths] as
      [(file, target)] pairs, in sorted file order. *)
end
