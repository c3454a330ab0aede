(** The cross-module call/escape graph behind the domain-safety rules.

    Nodes are top-level (and nested-module) [let] bindings across every
    analysed file, module-qualified via the owning dune library's
    [(name ...)]. "Runs on a worker domain" is rooted at [Domain.spawn]
    arguments and at closures handed to [Job.create]/[Job.pure], then
    propagated transitively over syntactically resolvable references.

    The analysis is conservative by under-approximation: references it
    cannot resolve (locals, stdlib, closures stored in data) are
    dropped, so it never flags code it cannot place — see DESIGN.md §11
    for the full soundness caveats. *)

val line_of : Location.t -> int
val longident_parts : Longident.t -> string list
val joined : Longident.t -> string
val module_of_basename : string -> string
(** Shared with the other checks: a location's line, a long identifier's
    components and the same joined with dots, and the module a source
    file defines (["dir/foo_bar.ml"] is [Foo_bar]). *)

val library_name_of_dune : string -> string option
(** The [(name x)] of the first [(library ...)] stanza in a dune file's
    text. *)

val check : (string * Parsetree.structure) list -> Finding.t list
(** [check [(file, ast); ...]] builds the graph over the given
    implementation files and returns every [shared-mutable-capture] and
    [domain-unsafe-call] finding, unsuppressed and unsorted (the driver
    filters and orders). *)

val dump : (string * Parsetree.structure) list -> string
(** Human-readable graph listing for [rla_lint --graph]: one line per
    node with its module-qualified name, location, root/reachable
    marks, and resolved outgoing edges. *)
