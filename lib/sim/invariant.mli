(** Debug-gated runtime invariants: the dynamic backstop to the static
    determinism linter.  Enabled by the [RLA_DEBUG_INVARIANTS]
    environment variable (1/true/yes/on) or by setting {!enabled};
    checks are passive, so instrumented runs replay byte-identically. *)

exception Violation of string

val enabled : bool ref
(** Check sites guard on [!enabled] so the disabled cost is one ref
    read per site. *)

val require : bool -> (unit -> string) -> unit
(** [require cond msg] counts a check; on failure counts it and raises
    {!Violation} with [msg ()] (built lazily). *)

module For_testing : sig
  (** Check counters: the invariant tests read them to prove that
      checks ran and passed. *)

  val checks_run : unit -> int
  (** Checks evaluated since start (or {!reset_counters}). *)

  val failures_seen : unit -> int

  val reset_counters : unit -> unit
end
