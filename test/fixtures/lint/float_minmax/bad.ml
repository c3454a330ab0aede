(* Fixture: polymorphic max/min with a syntactically float argument. *)
let floor_one x = Stdlib.max 1.0 x

let halve x = max 2.0 (x /. 2.0)

let cap x limit = Stdlib.min (x *. 2.0) limit

let aged a b now = min a (now -. b)
