(* Growable circular FIFO backed by a single array.

   Unlike [Stdlib.Queue] there is no per-element cell allocation: push
   and take touch one array slot each, and [take] returns the element
   itself rather than an option, so the link hot path (enqueue,
   dequeue, wire tracking) allocates nothing per packet.  Capacity is a
   power of two so the index wrap is a mask, and taken slots are
   overwritten with the caller-supplied dummy so a drained ring keeps
   no element reachable. *)

type 'a t = {
  mutable buf : 'a array;
  mutable head : int;  (* index of the front element *)
  mutable len : int;
  dummy : 'a;
}

let initial_capacity = 16

let create ~dummy = { buf = [||]; head = 0; len = 0; dummy }

let length t = t.len

let is_empty t = t.len = 0

let grow t =
  let cap = Array.length t.buf in
  if t.len = cap then begin
    let new_cap = if cap = 0 then initial_capacity else 2 * cap in
    let buf = Array.make new_cap t.dummy in
    for i = 0 to t.len - 1 do
      buf.(i) <- t.buf.((t.head + i) land (cap - 1))
    done;
    t.buf <- buf;
    t.head <- 0
  end

let push t x =
  grow t;
  let mask = Array.length t.buf - 1 in
  t.buf.((t.head + t.len) land mask) <- x;
  t.len <- t.len + 1

(* lint: hot take -- one array slot per dequeue on every link hop;
   callers check [length] first, so no option cell crosses the call *)
let take t =
  if t.len = 0 then invalid_arg "Ring.take: empty ring";
  let x = t.buf.(t.head) in
  t.buf.(t.head) <- t.dummy;
  t.head <- (t.head + 1) land (Array.length t.buf - 1);
  t.len <- t.len - 1;
  x

let peek t = if t.len = 0 then None else Some t.buf.(t.head)

let clear t =
  let mask = Array.length t.buf - 1 in
  for i = 0 to t.len - 1 do
    t.buf.((t.head + i) land mask) <- t.dummy
  done;
  t.head <- 0;
  t.len <- 0

let iter t ~f =
  let mask = Array.length t.buf - 1 in
  for i = 0 to t.len - 1 do
    f t.buf.((t.head + i) land mask)
  done

let capture t =
  let xs = ref [] in
  iter t ~f:(fun x -> xs := x :: !xs);
  List.rev !xs

let restore t xs =
  clear t;
  List.iter (fun x -> push t x) xs
