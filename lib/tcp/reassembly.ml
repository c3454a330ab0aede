(* The out-of-order set is a power-of-two byte ring indexed by
   [seq land (cap - 1)], as the scoreboard's flags are: a probe is one
   byte read, with no hashing and no entry to allocate.  The ring's
   floor is [expected]: every member lies in (expected, expected + cap),
   a probe outside that range is [false] before any slot is read (so a
   slot never answers for a number it merely aliases), and absorption
   zeroes each slot as the floor passes it.  The ring is allocated on
   the first out-of-order arrival and doubles on demand. *)

type t = {
  mutable expected : int;
  mutable ring : Bytes.t;
  mutable held : int;  (* members of the out-of-order set *)
  mutable recent : int list;  (* representatives of recent blocks *)
  mutable duplicates : int;
}

let create ?(start = 0) () =
  { expected = start; ring = Bytes.empty; held = 0; recent = []; duplicates = 0 }

let expected t = t.expected

let held t = t.held

(* lint: hot mem -- every arrival and SACK block edge: two compares and
   one byte read *)
let mem t seq =
  let off = seq - t.expected and cap = Bytes.length t.ring in
  off > 0 && off < cap
  && Char.code (Bytes.unsafe_get t.ring (seq land (cap - 1))) <> 0

let rec pow2_above n cap = if n < cap then cap else pow2_above n (2 * cap)

(* lint: hot add -- every out-of-order arrival; allocates only when the
   ring grows *)
let add t seq =
  let old = t.ring and off = seq - t.expected in
  if off >= Bytes.length old then begin
    let ring = Bytes.make (pow2_above off 64) '\000' in
    for s = t.expected + 1 to t.expected + Bytes.length old - 1 do
      Bytes.set ring (s land (Bytes.length ring - 1))
        (Bytes.get old (s land (Bytes.length old - 1)))
    done;
    t.ring <- ring
  end;
  Bytes.unsafe_set t.ring (seq land (Bytes.length t.ring - 1)) '\001';
  t.held <- t.held + 1

let rec absorb t next =
  if mem t next then begin
    Bytes.unsafe_set t.ring (next land (Bytes.length t.ring - 1)) '\000';
    t.held <- t.held - 1;
    absorb t (next + 1)
  end
  else t.expected <- next

(* [List.filter (fun r -> r >= bound)] without the per-call closure or
   a polymorphic compare; an unchanged list comes back as itself. *)
let rec keep_from (bound : int) = function
  | [] -> []
  | r :: rest as l ->
      let kept = keep_from bound rest in
      if r < bound then kept else if kept == rest then l else r :: kept

(* The first [n] elements of [l] other than [v], the same way. *)
let rec trim (v : int) n = function
  | r :: rest as l when n > 0 ->
      let kept = trim v (if r = v then n else n - 1) rest in
      if r = v then kept else if kept == rest then l else r :: kept
  | _ -> []

let accept t seq =
  if seq < t.expected || mem t seq then t.duplicates <- t.duplicates + 1
  else if seq = t.expected then begin
    absorb t (seq + 1);
    t.recent <- keep_from t.expected t.recent
  end
  else begin
    add t seq;
    (* One representative per possible block is enough. *)
    t.recent <- seq :: trim seq ((4 * Wire.max_sack_blocks) - 1) t.recent
  end

let rec lower t lo = if mem t (lo - 1) then lower t (lo - 1) else lo

let rec upper t hi = if mem t hi then upper t (hi + 1) else hi

(* Whether a representative ahead of the cell [here] lies in [lo, hi),
   i.e. the block it belongs to was reported already. *)
let rec reported l here (lo : int) hi =
  l != here
  &&
  match l with
  | [] -> false
  | r :: rest -> (r >= lo && r < hi) || reported rest here lo hi

(* lint: hot build -- once per ack with holes: the blocks come out in
   order, with no accumulator to reverse and no [seen] list *)
let rec build t n = function
  | [] -> []
  | _ when n >= Wire.max_sack_blocks -> []
  | rep :: rest as here ->
      if not (mem t rep) then build t n rest
      else
        let lo = lower t rep and hi = upper t (rep + 1) in
        if reported t.recent here lo hi then build t n rest
        else
          (* lint: allow alloc-hot -- the block and its cell are the ack *)
          { Wire.block_lo = lo; block_hi = hi } :: build t (n + 1) rest

let blocks t = if t.held = 0 then [] else build t 0 t.recent

type state = {
  ooo : int list;
  recent : int list;
  expected : int;
  duplicates : int;
}

let capture (t : t) =
  let rec members s acc =
    if s <= t.expected then acc
    else members (s - 1) (if mem t s then s :: acc else acc)
  in
  let ooo = members (t.expected + Bytes.length t.ring - 1) [] in
  { ooo; recent = t.recent; expected = t.expected; duplicates = t.duplicates }

let restore (t : t) st =
  t.expected <- st.expected;
  t.ring <- Bytes.empty;
  t.held <- 0;
  (* Nothing at or below the floor, even from a damaged checkpoint. *)
  List.iter (fun s -> if s > st.expected && not (mem t s) then add t s) st.ooo;
  t.recent <- st.recent;
  t.duplicates <- st.duplicates
