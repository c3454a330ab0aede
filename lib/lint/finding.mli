(** A single linter finding: one rule firing at one source location. *)

type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

val severity_to_string : severity -> string

val make :
  file:string ->
  line:int ->
  ?col:int ->
  rule:string ->
  severity:severity ->
  string ->
  t

val compare : t -> t -> int
(** Orders by file, line, column, rule, message — the report order. *)

val to_string : t -> string
(** Renders as [file:line rule message], the CLI's text output line. *)
