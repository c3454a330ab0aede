(* Beta's total is named here, not alpha's, so alpha's export has no
   caller.  Beta.Wire is an include alias of Alpha.Wire, so the second
   line does count for alpha's encode. *)
let () = print_int Beta.Receiver.total
let () = print_int (Beta.Wire.encode 1)
