(* Array-based binary min-heap.  Ordering is lexicographic on
   (priority, sequence number) so that insertions at equal priority pop
   in FIFO order — required for deterministic event scheduling.

   The layout is a structure of arrays: priorities live in an unboxed
   [float array], tie-break counters in an [int array], and values in a
   uniform pointer array.  Sift operations therefore compare raw floats
   and ints without chasing a boxed entry record per element, and
   adding an element allocates nothing beyond amortized array growth.

   Values are stored through [Obj.repr] in a uniform (non-flat) array
   created from an immediate, so the representation is safe for every
   ['a] including [float] (floats are stored boxed, never unboxed, and
   all accesses go through the uniform-array path).  Vacated slots are
   overwritten with the immediate dummy on [pop], [clear] and
   [restore], so a drained heap keeps no value (and hence no closure,
   packet or sender captured by one) reachable. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable vals : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let dummy : Obj.t = Obj.repr 0

let create () =
  { prios = [||]; seqs = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* (prio, seq) at index [i] precedes index [j]. *)
let lt t i j =
  let pi = Array.unsafe_get t.prios i and pj = Array.unsafe_get t.prios j in
  if pi < pj then true
  else if pi > pj then false
  else Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j

let grow t =
  let cap = Array.length t.prios in
  if t.size = cap then begin
    let new_cap = if cap = 0 then initial_capacity else 2 * cap in
    let prios = Array.make new_cap 0.0 in
    let seqs = Array.make new_cap 0 in
    let vals = Array.make new_cap dummy in
    Array.blit t.prios 0 prios 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.vals 0 vals 0 t.size;
    t.prios <- prios;
    t.seqs <- seqs;
    t.vals <- vals
  end

(* Sifts work on indices only: the moving element's priority is read
   from [t.prios] at each level and never crosses a call as a [float]
   argument.  That matters because dune's dev profile compiles with
   [-opaque], and a float passed to (or returned from) a function that
   is not inlined is boxed (2 words) on every call.  Unsafe accesses
   are in-bounds by construction ([grow] ran / indices < [t.size]). *)

let swap t i j =
  let p = Array.unsafe_get t.prios i in
  Array.unsafe_set t.prios i (Array.unsafe_get t.prios j);
  Array.unsafe_set t.prios j p;
  let s = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j s;
  let v = Array.unsafe_get t.vals i in
  Array.unsafe_set t.vals i (Array.unsafe_get t.vals j);
  Array.unsafe_set t.vals j v

(* The element at [i] ascends by swaps while it precedes its parent.
   A fresh event is almost always later than most pending ones, so the
   expected climb is about one level and swapping costs no more than a
   hole would. *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

(* Final index for the element parked at [m] (outside the live prefix,
   [m >= t.size]) descending from hole [i]: the smaller child is pulled
   up into the hole at each level, and the caller writes the parked
   element once at the returned index. *)
let rec sift_down_hole t ~m i =
  let left = (2 * i) + 1 in
  if left >= t.size then i
  else begin
    let right = left + 1 in
    let c = if right < t.size && lt t right left then right else left in
    if lt t c m then begin
      Array.unsafe_set t.prios i (Array.unsafe_get t.prios c);
      Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs c);
      Array.unsafe_set t.vals i (Array.unsafe_get t.vals c);
      sift_down_hole t ~m c
    end
    else i
  end

let push t ~prio ~seq value =
  grow t;
  let i = t.size in
  t.size <- i + 1;
  Array.unsafe_set t.prios i prio;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals i (Obj.repr value);
  sift_up t i

let add t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t ~prio ~seq value

(* Restore path: re-insert an element under its original tie-break
   counter so that a restored heap pops in exactly the original order.
   The caller owns seq uniqueness; [next_seq] is left untouched. *)
let add_with_seq t ~prio ~seq value = push t ~prio ~seq value

let next_seq t = t.next_seq

let set_next_seq t n = t.next_seq <- n

let capture t =
  let xs = ref [] in
  for i = 0 to t.size - 1 do
    xs := (t.prios.(i), t.seqs.(i), (Obj.obj t.vals.(i) : 'a)) :: !xs
  done;
  List.sort
    (fun (p1, s1, _) (p2, s2, _) ->
      match Float.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c)
    !xs

let clear t =
  t.prios <- [||];
  t.seqs <- [||];
  t.vals <- [||];
  t.size <- 0

let restore t ~next_seq entries =
  clear t;
  List.iter (fun (prio, seq, value) -> push t ~prio ~seq value) entries;
  t.next_seq <- next_seq

let min_prio t = if t.size = 0 then None else Some t.prios.(0)

(* lint: hot top_prio -- read once per scheduler step; one array load.
   Under -opaque the float result is boxed at the call (2 words), and
   the scheduler keeps that box as its clock *)
let top_prio t =
  if t.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  t.prios.(0)

let peek t =
  if t.size = 0 then None
  else Some (t.prios.(0), (Obj.obj t.vals.(0) : 'a))

(* Whether the minimum element's priority is above [bound], without
   returning (and so boxing) the priority itself. *)
let top_above t bound =
  if t.size = 0 then invalid_arg "Heap.top_above: empty heap";
  t.prios.(0) > bound

let top_seq t =
  if t.size = 0 then invalid_arg "Heap.top_seq: empty heap";
  t.seqs.(0)

(* Allocation-free root removal for the scheduler's fire loop: the
   caller reads (prio, seq) via [top_prio]/[top_seq] first, so only the
   value crosses the call.  The former last element stays parked in
   its vacated slot (just past the shrunk live prefix) while the root
   hole descends, then moves to its final index; the parked slot is
   cleared so the popped (or moved) value never stays reachable from
   the backing array. *)
(* lint: hot pop_top -- the scheduler fire loop's root removal; sifts
   by index, so no priority is boxed *)
let pop_top t =
  if t.size = 0 then invalid_arg "Heap.pop_top: empty heap";
  let prio = Array.unsafe_get t.prios 0 in
  let seq = Array.unsafe_get t.seqs 0 in
  let value : 'a = Obj.obj (Array.unsafe_get t.vals 0) in
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let i = sift_down_hole t ~m:last 0 in
    Array.unsafe_set t.prios i (Array.unsafe_get t.prios last);
    Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs last);
    Array.unsafe_set t.vals i (Array.unsafe_get t.vals last);
    Array.unsafe_set t.vals last dummy;
    (* Stable-order backstop: everything still in the heap was >= the
       popped root (in (prio, seq) order), so the new root must be too. *)
    if !Invariant.enabled then
      Invariant.require
        (not (t.prios.(0) < prio || (t.prios.(0) = prio && t.seqs.(0) < seq)))
        (fun () ->
          Printf.sprintf
            "Heap.pop: successor (%g, #%d) precedes popped entry (%g, #%d)"
            t.prios.(0) t.seqs.(0) prio seq)
  end
  else Array.unsafe_set t.vals 0 dummy;
  value

(* lint: hot pop_entry -- checkpoint drain + replay path over the live
   heap; one option cell per entry is its only allowed allocation *)
let pop_entry t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) in
    let seq = t.seqs.(0) in
    (* lint: allow alloc-hot -- the Some-triple is the drain API; one
       cell per drained entry, off the per-event fire loop *)
    Some (prio, seq, pop_top t)
  end

let pop t =
  if t.size = 0 then None
  else begin
    let prio = t.prios.(0) in
    Some (prio, pop_top t)
  end

let iter t ~f =
  for i = 0 to t.size - 1 do
    f t.prios.(i) (Obj.obj t.vals.(i) : 'a)
  done
