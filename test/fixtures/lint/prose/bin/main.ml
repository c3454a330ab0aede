(* Api.quoted appears in this file only in comments (* even a nested
   one: Api.quoted *) and in literals, so it has no caller.  The one
   use of the other value sits after a '"' char literal, which must
   not open a string. *)
let () = print_string "Api.quoted"
let () = print_string {|Api.quoted|}
let () = print_string {id|Api.quoted|id}
let () = print_char '"'; print_int Fixprose.Api.live
let () = print_char '"'
