type severity = Error | Warning

type t = {
  file : string;
  line : int;
  col : int;
  rule : string;
  severity : severity;
  message : string;
}

let severity_to_string = function Error -> "error" | Warning -> "warning"

let make ~file ~line ?(col = 0) ~rule ~severity message =
  { file; line; col; rule; severity; message }

(* Explicit comparator chain — the linter practices what it preaches. *)
let compare a b =
  let c = String.compare a.file b.file in
  if c <> 0 then c
  else
    let c = Int.compare a.line b.line in
    if c <> 0 then c
    else
      let c = Int.compare a.col b.col in
      if c <> 0 then c
      else
        let c = String.compare a.rule b.rule in
        if c <> 0 then c else String.compare a.message b.message

let to_string f = Printf.sprintf "%s:%d %s %s" f.file f.line f.rule f.message
