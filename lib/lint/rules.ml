(* The rule registry.  Scopes name top-level trees: a rule with
   [Dirs l] only applies to files whose scope key (computed by the
   driver from the path: "lib/<sub>" for files under a lib component,
   "bin"/"bench"/"test"/"examples" for those trees) is in [l].  Files
   with no recognizable scope key — e.g. test fixtures passed
   explicitly — are checked against every rule, so fixtures can
   exercise each rule without replicating the repo layout. *)

type scope = All | Dirs of string list

type t = {
  name : string;
  summary : string;
  scope : scope;
  severity : Finding.severity;
}

let all =
  [
    {
      name = "wall-clock";
      summary =
        "ambient wall-clock reads (Unix.gettimeofday/Unix.time/Sys.time) \
         are forbidden; simulation time must come from Sim.Scheduler.now";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "ambient-rng";
      summary =
        "global Random.* (incl. Random.self_init) is forbidden; draw from \
         the seeded, splittable Sim.Rng instead";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "poly-compare";
      summary =
        "polymorphic compare/hash on floats or records in hot-path \
         libraries; use explicit comparators (Float.compare, Int.compare)";
      scope = Dirs [ "lib/sim"; "lib/net"; "lib/core"; "lib/tcp"; "lib/stats" ];
      severity = Finding.Error;
    };
    {
      name = "hashtbl-order";
      summary =
        "unordered Hashtbl iteration on an exporter-feeding path; sort the \
         keys first or keep an insertion-order side list";
      scope = Dirs [ "lib/obs"; "lib/runner"; "lib/experiments" ];
      severity = Finding.Error;
    };
    {
      name = "mli-required";
      summary = "every .ml under lib/ must have a matching .mli";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "unused-export";
      summary =
        "value exported in an .mli but never referenced outside its \
         defining file (advisory; an error under --strict)";
      scope = All;
      severity = Finding.Warning;
    };
    {
      name = "ckpt-coverage";
      summary =
        "module holds mutable record state but its interface exports no \
         capture/restore pair, so checkpoints cannot carry it (advisory)";
      scope = Dirs [ "lib/sim"; "lib/net"; "lib/tcp"; "lib/core" ];
      severity = Finding.Warning;
    };
    {
      name = "shared-mutable-capture";
      summary =
        "module-level mutable state (ref/Hashtbl/Buffer/mutable record) \
         reachable from a worker-domain closure without Atomic or Mutex \
         protection; a silent cross-domain data race";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "domain-unsafe-call";
      summary =
        "worker-domain-reachable call into non-reentrant ambient stdlib \
         state (Format.std_formatter, stdout/stderr printing, global \
         Random); domains would interleave or race on it";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "alloc-hot";
      summary =
        "allocation construct (closure, tuple/record/constructor return, \
         ref, Printf/Format/List combinators, string building, boxed \
         float let) inside a function annotated (* lint: hot ... *)";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "hot-coverage";
      summary =
        "a (* lint: hot <function> *) annotation must name a function \
         that the file defines";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "bad-annotation";
      summary =
        "malformed lint annotation; the grammar is \
         (* lint: allow[-file] <rule> -- <reason> *) or \
         (* lint: hot <function> -- <reason> *)";
      scope = All;
      severity = Finding.Error;
    };
    {
      name = "parse-error";
      summary = "source file does not parse; the linter cannot vouch for it";
      scope = All;
      severity = Finding.Error;
    };
  ]

let find name = List.find_opt (fun r -> String.equal r.name name) all

let names = List.map (fun r -> r.name) all

(* [bad-annotation] and [parse-error] are infrastructure: they stay on
   even under --rules, otherwise a typo'd suppression would silently
   disable the rule it claims to suppress. *)
let always_on = [ "bad-annotation"; "parse-error" ]

let severity_of name =
  match find name with Some r -> r.severity | None -> Finding.Error

let in_scope rule ~scope_key =
  match rule.scope with
  | All -> true
  | Dirs dirs -> (
      match scope_key with
      | None -> true
      | Some k -> List.exists (String.equal k) dirs)
