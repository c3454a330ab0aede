(* Debug-gated runtime invariants — the dynamic backstop to the static
   determinism linter (lib/lint).  The linter can prove "no ambient
   entropy reached this file"; it cannot prove "the heap popped in
   stable order on this run".  These checks can, and because probing is
   passive (no events scheduled, no RNG drawn, no output emitted), an
   instrumented run stays byte-identical to an uninstrumented one.

   Gate: the RLA_DEBUG_INVARIANTS environment variable at startup
   (1/true/yes/on), or [enabled := true] from tests.  Disabled, the cost at
   every check site is a single ref read. *)

exception Violation of string

let env_enabled =
  match Sys.getenv_opt "RLA_DEBUG_INVARIANTS" with
  | Some ("1" | "true" | "yes" | "on") -> true
  | _ -> false

(* Written once at startup (or from single-domain test setup) before
   any worker domain exists; workers only read it. *)
(* lint: allow shared-mutable-capture -- set before any Domain.spawn;
   workers only read it, and a stale read just skips a debug check *)
let enabled = ref env_enabled

(* Counters are informational but shared across shard workers, so they
   must be atomic or parallel runs would under-count (and race). *)
let checks = Atomic.make 0

let failures = Atomic.make 0

let checks_run () = Atomic.get checks

let failures_seen () = Atomic.get failures

let reset_counters () =
  Atomic.set checks 0;
  Atomic.set failures 0

(* [msg] is a thunk so the failure string is only built when the check
   actually fails; call sites guard on [!enabled] themselves to keep
   the disabled cost to one ref read. *)
let require cond msg =
  Atomic.incr checks;
  if not cond then begin
    Atomic.incr failures;
    raise (Violation (msg ()))
  end

module For_testing = struct
  let checks_run = checks_run
  let failures_seen = failures_seen
  let reset_counters = reset_counters
end
