(** The alloc-hot contract: functions declared
    [(* lint: hot <name> -- <reason> *)] are scanned for allocation
    constructs, together with the same-file functions they call
    (transitively, once each; findings named [hot->callee]), and
    [hot-coverage] verifies each annotation names a binding the file
    defines.

    Exempt subtrees: conditionals guarded by [Invariant.enabled] and
    error exits ([invalid_arg]/[failwith]/[raise]/[assert]).  Partial
    application is not detectable syntactically and is out of scope. *)

val check :
  file:string -> hots:Annot.hot list -> Parsetree.structure -> Finding.t list
(** [check ~file ~hots ast] returns the [alloc-hot] and [hot-coverage]
    findings for one implementation file. *)
