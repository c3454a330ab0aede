(* Array-based 4-ary min-heap.  Ordering is lexicographic on
   (priority, sequence number) so that insertions at equal priority pop
   in FIFO order — required for deterministic event scheduling.

   The layout is a structure of arrays.  The heap order lives in three
   parallel key arrays: priorities in an unboxed [float array],
   tie-break counters in an [int array], and the slot number of each
   entry's value in a second [int array].  Values live in a slot table
   ([vals], indexed by slot number) and never move while their entry
   sifts: a sift writes only floats and ints, so it pays no write
   barrier, and an entry costs one pointer write when it is added and
   one when it leaves.  Four children per node halve the depth of a
   binary heap; the four candidates sit side by side in each array.

   [slots] is a permutation of [0 .. capacity - 1]: its live prefix
   holds the slots of the stored entries and the rest are the free
   slots, so taking a free slot on push and returning one on pop are
   single array accesses, with no separate free list.

   Values are stored through [Obj.repr] in a uniform (non-flat) array
   created from an immediate, so the representation is safe for every
   ['a] including [float] (floats are stored boxed, never unboxed, and
   all accesses go through the uniform-array path).  A slot is
   overwritten with the immediate dummy when its entry is popped or
   filtered out, and [clear] drops the arrays, so the heap
   keeps no value (and hence no closure, packet or sender captured by
   one) reachable once it has let the entry go. *)

(* lint: allow-file ckpt-coverage -- the heap holds event closures,
   which no checkpoint can carry: Scheduler.capture records the pending
   (time, id) pairs and its restore re-inserts them with add_with_seq
   and set_next_seq. *)

type 'a t = {
  mutable prios : float array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable vals : Obj.t array;
  mutable size : int;
  mutable next_seq : int;
}

let initial_capacity = 64

let dummy : Obj.t = Obj.repr 0

let create () =
  { prios = [||]; seqs = [||]; slots = [||]; vals = [||]; size = 0; next_seq = 0 }

let length t = t.size

let is_empty t = t.size = 0

(* (prio, seq) at index [i] precedes index [j]. *)
let[@inline] lt t i j =
  let pi = Array.unsafe_get t.prios i and pj = Array.unsafe_get t.prios j in
  if pi < pj then true
  else if pi > pj then false
  else Array.unsafe_get t.seqs i < Array.unsafe_get t.seqs j

(* Make room for one more entry.  The new slots join the free region
   of [slots] in order, and each value keeps its slot number. *)
let grow t =
  let cap = Array.length t.prios in
  if t.size = cap then begin
    let new_cap = if cap = 0 then initial_capacity else 2 * cap in
    let prios = Array.make new_cap 0.0 in
    let seqs = Array.make new_cap 0 in
    let slots = Array.init new_cap Fun.id in
    let vals = Array.make new_cap dummy in
    Array.blit t.prios 0 prios 0 cap;
    Array.blit t.seqs 0 seqs 0 cap;
    Array.blit t.slots 0 slots 0 cap;
    Array.blit t.vals 0 vals 0 cap;
    t.prios <- prios;
    t.seqs <- seqs;
    t.slots <- slots;
    t.vals <- vals
  end

(* Sifts work on indices only: a priority is read from [t.prios] where
   it is compared and never crosses a call as a [float] argument.
   That matters because dune's dev profile compiles with [-opaque],
   and a float passed to (or returned from) a function that is not
   inlined is boxed (2 words) on every call.  Unsafe accesses are
   in-bounds by construction ([grow] ran / indices < [t.size]). *)

let[@inline] move t ~src ~dst =
  Array.unsafe_set t.prios dst (Array.unsafe_get t.prios src);
  Array.unsafe_set t.seqs dst (Array.unsafe_get t.seqs src);
  Array.unsafe_set t.slots dst (Array.unsafe_get t.slots src)

let swap t i j =
  let p = Array.unsafe_get t.prios i in
  Array.unsafe_set t.prios i (Array.unsafe_get t.prios j);
  Array.unsafe_set t.prios j p;
  let s = Array.unsafe_get t.seqs i in
  Array.unsafe_set t.seqs i (Array.unsafe_get t.seqs j);
  Array.unsafe_set t.seqs j s;
  let v = Array.unsafe_get t.slots i in
  Array.unsafe_set t.slots i (Array.unsafe_get t.slots j);
  Array.unsafe_set t.slots j v

(* The element at [i] ascends by swaps while it precedes its parent.
   A fresh event is almost always later than most pending ones, so the
   expected climb is under one level and swapping costs no more than a
   hole would. *)
let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) lsr 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

(* The least of the children [c .. c + 3] of one node that lie in the
   live prefix; the caller guarantees [c < t.size]. *)
let least_child t c =
  let n = t.size in
  let best = if c + 1 < n && lt t (c + 1) c then c + 1 else c in
  let best = if c + 2 < n && lt t (c + 2) best then c + 2 else best in
  if c + 3 < n && lt t (c + 3) best then c + 3 else best

(* Final index for the element parked at [m] (outside the live prefix,
   [m >= t.size]) descending from hole [i]: the least child is pulled
   up into the hole at each level, and the caller writes the parked
   element once at the returned index. *)
let rec sift_down_hole t ~m i =
  let c = (4 * i) + 1 in
  if c >= t.size then i
  else begin
    let c = least_child t c in
    if lt t c m then begin
      move t ~src:c ~dst:i;
      sift_down_hole t ~m c
    end
    else i
  end

(* Move the element parked at [m] into hole [i] and below.  The slot
   number that sat in the hole (a freed or borrowed one) goes back to
   [m], so [slots] stays a permutation. *)
let settle t ~m i =
  let hole_slot = Array.unsafe_get t.slots i in
  let j = sift_down_hole t ~m i in
  move t ~src:m ~dst:j;
  Array.unsafe_set t.slots m hole_slot

let push t ~prio ~seq value =
  grow t;
  let i = t.size in
  t.size <- i + 1;
  Array.unsafe_set t.prios i prio;
  Array.unsafe_set t.seqs i seq;
  Array.unsafe_set t.vals (Array.unsafe_get t.slots i) (Obj.repr value);
  sift_up t i

(* lint: hot add -- once per scheduled event: the value takes the free
   slot at the end of the live prefix (its one pointer write) and the
   keys climb by index *)
let add t ~prio value =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  push t ~prio ~seq value

(* Restore path: re-insert an element under its original tie-break
   counter so that a restored heap pops in exactly the original order.
   The caller owns seq uniqueness; [next_seq] is left untouched. *)
let add_with_seq t ~prio ~seq value = push t ~prio ~seq value

let set_next_seq t n = t.next_seq <- n

let value_at t i : 'a = Obj.obj (Array.unsafe_get t.vals t.slots.(i))

let capture t =
  let xs = ref [] in
  for i = 0 to t.size - 1 do
    xs := (t.prios.(i), t.seqs.(i), (value_at t i : 'a)) :: !xs
  done;
  List.sort
    (fun (p1, s1, _) (p2, s2, _) ->
      match Float.compare p1 p2 with 0 -> Int.compare s1 s2 | c -> c)
    !xs

let clear t =
  t.prios <- [||];
  t.seqs <- [||];
  t.slots <- [||];
  t.vals <- [||];
  t.size <- 0

(* lint: hot top_prio -- read once per scheduler step; one array load.
   Under -opaque the float result is boxed at the call (2 words), and
   the scheduler keeps that box as its clock *)
let top_prio t =
  if t.size = 0 then invalid_arg "Heap.top_prio: empty heap";
  t.prios.(0)

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
   value crosses the call.  The root's slot is cleared (the pop's one
   pointer write) so the popped value never stays reachable from the
   slot table.  The former last element stays parked just past the
   shrunk live prefix while the root hole descends, then moves to its
   final index, and the freed slot number takes the parked position. *)
(* lint: hot pop_top -- the scheduler fire loop's root removal; the
   hole descends four children at a time by index, writing only keys
   and slot numbers, so no priority is boxed and no pointer moves *)
let pop_top t =
  if t.size = 0 then invalid_arg "Heap.pop_top: empty heap";
  let slot = Array.unsafe_get t.slots 0 in
  let value : 'a = Obj.obj (Array.unsafe_get t.vals slot) in
  Array.unsafe_set t.vals slot dummy;
  let last = t.size - 1 in
  t.size <- last;
  if last > 0 then begin
    let prio = Array.unsafe_get t.prios 0 in
    let seq = Array.unsafe_get t.seqs 0 in
    settle t ~m:last 0;
    (* Stable-order backstop: everything still in the heap was >= the
       popped root (in (prio, seq) order), so the new root must be too. *)
    if !Invariant.enabled then
      Invariant.require
        (not (t.prios.(0) < prio || (t.prios.(0) = prio && t.seqs.(0) < seq)))
        (fun () ->
          Printf.sprintf
            "Heap.pop_top: successor (%g, #%d) precedes popped entry (%g, #%d)"
            t.prios.(0) t.seqs.(0) prio seq)
  end;
  value

(* Index of the first entry in the live prefix that precedes its
   parent, or [-1] when the 4-ary heap property holds. *)
let first_disorder t =
  let bad = ref (-1) in
  for i = t.size - 1 downto 1 do
    if lt t i ((i - 1) lsr 2) then bad := i
  done;
  !bad

(* Pack the entries from index [i] on whose counter passes [keep]
   behind the [j] already kept, clearing the slot of each dropped one;
   returns the number kept.  A survivor swaps slot numbers with the
   dropped entry whose index it takes, so the dropped slots end up
   behind the survivors, in the free region. *)
let rec pack t ~keep i j =
  if i >= t.size then j
  else begin
    let slot = Array.unsafe_get t.slots i in
    if keep (Array.unsafe_get t.seqs i) then begin
      Array.unsafe_set t.prios j (Array.unsafe_get t.prios i);
      Array.unsafe_set t.seqs j (Array.unsafe_get t.seqs i);
      Array.unsafe_set t.slots i (Array.unsafe_get t.slots j);
      Array.unsafe_set t.slots j slot;
      pack t ~keep (i + 1) (j + 1)
    end
    else begin
      Array.unsafe_set t.vals slot dummy;
      pack t ~keep (i + 1) j
    end
  end

(* Drop every entry whose counter fails [keep], then rebuild the heap
   bottom-up (Floyd): each internal node, deepest first, is parked just
   past the live prefix (borrowing the free slot number there, which
   exists because something was dropped) and settled from its own
   index.  When nothing was dropped the packing moved nothing and the
   heap stands as it was.  Keys are unique, so the survivors pop in the
   same order as before: the order is a function of the key set alone,
   not of the layout. *)
(* lint: hot compact -- runs whenever the scheduler's cancelled entries
   outnumber the live ones; one packing pass and a bottom-up rebuild
   that write only keys and slot numbers, with no closure or tuple of
   their own *)
let compact t ~keep =
  let before = t.size in
  t.size <- pack t ~keep 0 0;
  if t.size < before then begin
    let park = t.size in
    for i = (t.size - 2) asr 2 downto 0 do
      Array.unsafe_set t.prios park (Array.unsafe_get t.prios i);
      Array.unsafe_set t.seqs park (Array.unsafe_get t.seqs i);
      let borrowed = Array.unsafe_get t.slots park in
      Array.unsafe_set t.slots park (Array.unsafe_get t.slots i);
      Array.unsafe_set t.slots i borrowed;
      settle t ~m:park i
    done
  end;
  if !Invariant.enabled then begin
    let bad = first_disorder t in
    Invariant.require (bad < 0) (fun () ->
        Printf.sprintf
          "Heap.compact: entry %d (%g, #%d) precedes its parent (%g, #%d)" bad
          t.prios.(bad) t.seqs.(bad)
          t.prios.((bad - 1) lsr 2)
          t.seqs.((bad - 1) lsr 2));
    for i = 0 to t.size - 1 do
      Invariant.require (keep t.seqs.(i)) (fun () ->
          Printf.sprintf "Heap.compact: survivor #%d fails the filter"
            t.seqs.(i))
    done
  end
