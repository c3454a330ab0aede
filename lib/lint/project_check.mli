(** Project-shape checks: interface coverage and dead exported API. *)

val mli_required : ml_files:string list -> Finding.t list
(** One [mli-required] finding per .ml without a sibling .mli.  Files
    under bin/, bench/ or examples/ components are exempt (executable
    roots). *)

val ckpt_coverage :
  parse_impl:(string -> (Parsetree.structure, string) result) ->
  parse_interface:(string -> (Parsetree.signature, string) result) ->
  ml_files:string list ->
  Finding.t list
(** One advisory [ckpt-coverage] warning per .ml that declares a record
    with mutable fields while its sibling .mli exports no
    [capture]/[restore] pair: such state cannot travel in a checkpoint.
    Scope (the checkpointed libraries) is applied by the driver; files
    without an .mli are left to [mli-required]. *)

val unused_export :
  parse_interface:(string -> (Parsetree.signature, string) result) ->
  lib_dirs:(string * string list) list ->
  search_files:string list ->
  Finding.t list
(** [unused_export ~parse_interface ~lib_dirs ~search_files] reports an
    advisory [unused-export] warning for every value declared in one of
    a library's .mli files ([lib_dirs] maps a library directory to its
    .mli paths) that is never referenced, as a [Module.value] token,
    in any of [search_files] other than its own .ml/.mli pair.  A
    [W.Module.value] token does not count when [W] is the wrapper of
    another library in [lib_dirs] whose [Module] interface declares
    [value] itself.  Values inside submodules (such as [For_testing])
    are not top-level and are never reported. *)
