(* A hot function whose own body is clean but which calls a same-file
   helper that allocates: the contract follows the call, and the
   finding is named after both. *)

let pair x = (x, x)

let first x = fst (pair x)

(* lint: hot via_helper -- fixture: the fast path includes its callees *)
let via_helper x = first x + 1
