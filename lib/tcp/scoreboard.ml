(* Ring-buffer scoreboard.  The only live per-packet state is for
   sequence numbers in the half-open window [high_ack, next_seq), so
   the per-packet flags live in a power-of-two ring indexed by
   [seq land (cap - 1)] — a [Bytes] of flag bits plus a parallel
   [float array] of retransmit times — instead of a hash table.  Every
   flag read/update is then one byte access with no hashing and no
   entry allocation, which matters because the sender consults the
   board several times per ack.

   Slot reuse is sound because the window never exceeds [cap]
   (register_send grows the ring first) and a slot is zeroed whenever
   its sequence number leaves the window (advance_cum), so a zero flag
   byte is exactly "no entry" in the old hash-table representation. *)

let f_sacked = 0b001

let f_lost = 0b010

let f_rexmitted = 0b100

type t = {
  mutable flags : Bytes.t;
  mutable rexmit_time : float array;
  mutable cap : int;  (* power of two; always >= window *)
  mutable high_ack : int;
  mutable next_seq : int;
  mutable highest_sacked : int;
  mutable sacked_cnt : int;
  mutable lost_cnt : int;  (* lost and not sacked *)
  mutable rexmit_out : int;  (* retransmitted, not yet sacked/acked *)
  mutable loss_floor : int;  (* below this, loss detection already ran *)
}

let initial_cap = 256

let create ?(start = 0) () =
  if start < 0 then invalid_arg "Scoreboard.create: negative start";
  {
    flags = Bytes.make initial_cap '\000';
    rexmit_time = Array.make initial_cap 0.0;
    cap = initial_cap;
    high_ack = start;
    next_seq = start;
    highest_sacked = start - 1;
    sacked_cnt = 0;
    lost_cnt = 0;
    rexmit_out = 0;
    loss_floor = start;
  }

let high_ack t = t.high_ack

let next_seq t = t.next_seq

let highest_sacked t = t.highest_sacked

let slot t seq = seq land (t.cap - 1)

let get_flags t seq = Char.code (Bytes.unsafe_get t.flags (slot t seq))

let set_flags t seq f = Bytes.unsafe_set t.flags (slot t seq) (Char.unsafe_chr f)

let clear_slot t seq =
  set_flags t seq 0;
  t.rexmit_time.(slot t seq) <- 0.0

let in_window t seq = seq >= t.high_ack && seq < t.next_seq

let ensure_capacity t window =
  if window > t.cap then begin
    let new_cap = ref t.cap in
    while window > !new_cap do
      new_cap := 2 * !new_cap
    done;
    let flags = Bytes.make !new_cap '\000' in
    let times = Array.make !new_cap 0.0 in
    let mask = !new_cap - 1 in
    for seq = t.high_ack to t.next_seq - 1 do
      Bytes.set flags (seq land mask) (Bytes.get t.flags (slot t seq));
      times.(seq land mask) <- t.rexmit_time.(slot t seq)
    done;
    t.flags <- flags;
    t.rexmit_time <- times;
    t.cap <- !new_cap
  end

let register_send t =
  let s = t.next_seq in
  ensure_capacity t (s + 1 - t.high_ack);
  (* A freshly entering sequence number starts flagless; its slot was
     zeroed when the previous occupant left the window. *)
  t.next_seq <- s + 1;
  s

let is_sacked t seq = in_window t seq && get_flags t seq land f_sacked <> 0

let is_lost t seq = in_window t seq && get_flags t seq land f_lost <> 0

let is_rexmitted t seq = in_window t seq && get_flags t seq land f_rexmitted <> 0

let sack_one t seq =
  if in_window t seq then begin
    let f = get_flags t seq in
    if f land f_sacked <> 0 then false
    else begin
      if f land f_lost <> 0 then t.lost_cnt <- t.lost_cnt - 1;
      if f land f_rexmitted <> 0 then t.rexmit_out <- t.rexmit_out - 1;
      set_flags t seq f_sacked;
      t.sacked_cnt <- t.sacked_cnt + 1;
      if seq > t.highest_sacked then t.highest_sacked <- seq;
      true
    end
  end
  else false

(* The [_iter] variants report each affected sequence number, in
   ascending order, to a callback instead of building a list (a caller
   on the per-ack path passes one closure it allocated once), and
   return the count; the plain counting variants pass [no_report]. *)

let no_report (_ : int) = ()

let rec sack_range t seq hi f newly =
  if seq >= hi then newly
  else if sack_one t seq then begin
    f seq;
    sack_range t (seq + 1) hi f (newly + 1)
  end
  else sack_range t (seq + 1) hi f newly

let mark_sacked_iter t ~lo ~hi f = sack_range t lo hi f 0

let mark_sacked t ~lo ~hi = mark_sacked_iter t ~lo ~hi no_report

(* Reports the newly acknowledged sequence numbers that had not been
   SACKed before; returns how far the cumulative point moved
   (previously SACKed positions count as newly acknowledged too). *)
let advance_cum_iter t ack f =
  if ack <= t.high_ack then 0
  else begin
    let ack = Stdlib.min ack t.next_seq in
    let before = t.high_ack in
    for seq = before to ack - 1 do
      let fl = get_flags t seq in
      if fl land f_sacked <> 0 then t.sacked_cnt <- t.sacked_cnt - 1
      else begin
        f seq;
        if fl land f_lost <> 0 then t.lost_cnt <- t.lost_cnt - 1;
        if fl land f_rexmitted <> 0 then t.rexmit_out <- t.rexmit_out - 1
      end;
      clear_slot t seq
    done;
    t.high_ack <- ack;
    if t.loss_floor < ack then t.loss_floor <- ack;
    ack - before
  end

let advance_cum t ack = advance_cum_iter t ack no_report

let mark_lost t seq =
  if not (in_window t seq) then false
  else begin
    let f = get_flags t seq in
    if f land (f_sacked lor f_lost) <> 0 then false
    else begin
      set_flags t seq (f lor f_lost);
      t.lost_cnt <- t.lost_cnt + 1;
      true
    end
  end

(* A packet is lost once a packet >= seq + dupthresh has been SACKed;
   only the range [loss_floor, highest_sacked - dupthresh] can contain
   fresh losses. *)
let rec mark_lost_range t seq upper f found =
  if seq > upper then found
  else if mark_lost t seq then begin
    f seq;
    mark_lost_range t (seq + 1) upper f (found + 1)
  end
  else mark_lost_range t (seq + 1) upper f found

let detect_losses_iter t ~dupthresh f =
  let upper = t.highest_sacked - dupthresh in
  if upper < t.loss_floor then 0
  else begin
    let found = mark_lost_range t t.loss_floor upper f 0 in
    t.loss_floor <- upper + 1;
    found
  end

let detect_losses t ~dupthresh =
  let lost = ref [] in
  ignore (detect_losses_iter t ~dupthresh (fun seq -> lost := seq :: !lost));
  List.rev !lost

let rec sack_blocks t = function
  | [] -> ()
  | { Wire.block_lo; block_hi } :: rest ->
      ignore (mark_sacked t ~lo:block_lo ~hi:block_hi : int);
      sack_blocks t rest

(* One call per ack instead of one for the cumulative advance, one per
   SACK block and one for loss detection rebuilding lists between the
   steps.  It returns a count rather than a tuple of counts and lists:
   the sender reads how far the cumulative point moved off
   {!high_ack}. *)
(* lint: hot process_ack -- once per received ack on the sender fast
   path; counts only, no tuple or sequence list *)
let process_ack t ~cum_ack ~blocks ~dupthresh =
  ignore (advance_cum t cum_ack : int);
  sack_blocks t blocks;
  detect_losses_iter t ~dupthresh no_report

let mark_all_lost t =
  let marked = ref 0 in
  for seq = t.high_ack to t.next_seq - 1 do
    let f = get_flags t seq in
    let f =
      if f land f_rexmitted <> 0 then begin
        (* The retransmission is presumed lost as well; allow resending. *)
        t.rexmit_out <- t.rexmit_out - 1;
        f land lnot f_rexmitted
      end
      else f
    in
    if f land (f_sacked lor f_lost) = 0 then begin
      set_flags t seq (f lor f_lost);
      t.lost_cnt <- t.lost_cnt + 1;
      incr marked
    end
    else set_flags t seq f
  done;
  !marked

(* Lost packets are rare and near high_ack; a scan bounded by the first
   candidate keeps this cheap.  A top-level loop, not a local closure:
   the sender asks once per transmission opportunity. *)
let rec scan_retransmit t seq =
  if seq >= t.next_seq then None
  else
    let f = get_flags t seq in
    if f land f_lost <> 0 && f land f_rexmitted = 0 then Some seq
    else scan_retransmit t (seq + 1)

let next_retransmit t =
  if t.lost_cnt - t.rexmit_out <= 0 then None else scan_retransmit t t.high_ack

let mark_retransmitted ?(at = 0.0) t seq =
  if not (is_lost t seq) then
    invalid_arg "Scoreboard.mark_retransmitted: not lost";
  if get_flags t seq land f_rexmitted <> 0 then
    invalid_arg "Scoreboard.mark_retransmitted: already retransmitted";
  set_flags t seq (get_flags t seq lor f_rexmitted);
  t.rexmit_time.(slot t seq) <- at;
  t.rexmit_out <- t.rexmit_out + 1

let expire_rexmits_iter t ~before f =
  (* A retransmission older than [before] is presumed lost itself: the
     packet becomes eligible for another retransmission without waiting
     for the (much costlier) global timeout. *)
  if t.rexmit_out > 0 then
    for seq = t.high_ack to t.next_seq - 1 do
      let fl = get_flags t seq in
      if fl land f_rexmitted <> 0 && t.rexmit_time.(slot t seq) < before then begin
        set_flags t seq (fl land lnot f_rexmitted);
        t.rexmit_out <- t.rexmit_out - 1;
        f seq
      end
    done

(* Karn's-algorithm support: does the (clamped) range [lo, hi) hold a
   retransmitted packet?  Must be asked before [process_ack] advances
   the cumulative point — advancing clears the slots.  The scan is
   bounded by the window, and by [rexmit_out = 0] in the common case. *)
let range_has_rexmit t ~lo ~hi =
  if t.rexmit_out = 0 then false
  else begin
    let lo = Stdlib.max lo t.high_ack and hi = Stdlib.min hi t.next_seq in
    let found = ref false in
    let seq = ref lo in
    while (not !found) && !seq < hi do
      if get_flags t !seq land f_rexmitted <> 0 then found := true;
      incr seq
    done;
    !found
  end

let in_flight_window t = t.next_seq - t.high_ack

let pipe t = in_flight_window t - t.sacked_cnt - t.lost_cnt + t.rexmit_out

type entry_state = {
  e_seq : int;
  e_sacked : bool;
  e_lost : bool;
  e_rexmitted : bool;
  e_rexmit_time : float;
}

type state = {
  s_entries : entry_state list;  (* ascending seq *)
  s_high_ack : int;
  s_next_seq : int;
  s_highest_sacked : int;
  s_sacked_cnt : int;
  s_lost_cnt : int;
  s_rexmit_out : int;
  s_loss_floor : int;
}

(* Slots with a zero flag byte are exactly the sequence numbers the old
   hash-table representation had no entry for (an entry was only ever
   created together with at least one flag), so capturing the non-zero
   slots in ascending window order reproduces the historical state
   byte-for-byte. *)
let capture t =
  let es = ref [] in
  for seq = t.next_seq - 1 downto t.high_ack do
    let f = get_flags t seq in
    if f <> 0 then
      es :=
        {
          e_seq = seq;
          e_sacked = f land f_sacked <> 0;
          e_lost = f land f_lost <> 0;
          e_rexmitted = f land f_rexmitted <> 0;
          e_rexmit_time = t.rexmit_time.(slot t seq);
        }
        :: !es
  done;
  {
    s_entries = !es;
    s_high_ack = t.high_ack;
    s_next_seq = t.next_seq;
    s_highest_sacked = t.highest_sacked;
    s_sacked_cnt = t.sacked_cnt;
    s_lost_cnt = t.lost_cnt;
    s_rexmit_out = t.rexmit_out;
    s_loss_floor = t.loss_floor;
  }

let restore t st =
  t.high_ack <- st.s_high_ack;
  t.next_seq <- st.s_next_seq;
  ensure_capacity t (st.s_next_seq - st.s_high_ack);
  Bytes.fill t.flags 0 t.cap '\000';
  Array.fill t.rexmit_time 0 t.cap 0.0;
  List.iter
    (fun e ->
      let f =
        (if e.e_sacked then f_sacked else 0)
        lor (if e.e_lost then f_lost else 0)
        lor if e.e_rexmitted then f_rexmitted else 0
      in
      set_flags t e.e_seq f;
      t.rexmit_time.(slot t e.e_seq) <- e.e_rexmit_time)
    st.s_entries;
  t.highest_sacked <- st.s_highest_sacked;
  t.sacked_cnt <- st.s_sacked_cnt;
  t.lost_cnt <- st.s_lost_cnt;
  t.rexmit_out <- st.s_rexmit_out;
  t.loss_floor <- st.s_loss_floor

let check_invariants t =
  let sacked = ref 0 and lost = ref 0 and rexmit = ref 0 in
  for seq = t.high_ack to t.next_seq - 1 do
    let f = get_flags t seq in
    assert (not (f land f_sacked <> 0 && f land f_lost <> 0));
    if f land f_rexmitted <> 0 then assert (f land f_lost <> 0);
    if f land f_sacked <> 0 then incr sacked;
    if f land f_lost <> 0 then incr lost;
    if f land f_rexmitted <> 0 then incr rexmit
  done;
  assert (!sacked = t.sacked_cnt);
  assert (!lost = t.lost_cnt);
  assert (!rexmit = t.rexmit_out);
  assert (pipe t >= 0)

module For_testing = struct
  let advance_cum = advance_cum
  let mark_sacked = mark_sacked
  let detect_losses = detect_losses
  let mark_lost = mark_lost
  let highest_sacked = highest_sacked
  let check_invariants = check_invariants
end
