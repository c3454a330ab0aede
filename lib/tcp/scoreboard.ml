(* Ring-buffer scoreboard.  The per-packet flags of the window
   [high_ack, next_seq) live in a power-of-two ring indexed by
   [seq land (cap - 1)], a [Bytes] of flag bits plus a parallel
   [float array] of retransmit times, instead of a hash table: every
   flag read/update is one byte access, with no hashing and no entry
   allocation.  As in [Reassembly], the ring spans [high_ack, high_ack
   + cap), a read outside that span is 0, the ring is allocated on the
   first mark and doubles on demand, and a slot is zeroed as the
   cumulative ack passes it.  A timeout marks the window lost without
   writing the ring: an unmarked seq below [lost_below] reads as lost.
   The RLA sender keeps its receivers' boards against one [next_seq] of
   its own, which it passes to the transitions. *)

let f_sacked = 0b001

let f_lost = 0b010

let f_rexmitted = 0b100

type t = {
  mutable high_ack : int;
  mutable next_seq : int;
  mutable highest_sacked : int;
  mutable loss_floor : int;  (* below this, loss detection already ran *)
  mutable lost_below : int;  (* unmarked seqs below this are lost *)
  mutable sacked_cnt : int;
  mutable lost_cnt : int;  (* lost and not sacked *)
  mutable rexmit_out : int;  (* retransmitted, not yet sacked/acked *)
  mutable marks : Bytes.t;
  mutable rexmit_at : float array;  (* parallel to [marks] *)
}

let create ?(start = 0) () =
  if start < 0 then invalid_arg "Scoreboard.create: negative start";
  {
    high_ack = start;
    next_seq = start;
    highest_sacked = start - 1;
    loss_floor = start;
    lost_below = start;
    sacked_cnt = 0;
    lost_cnt = 0;
    rexmit_out = 0;
    marks = Bytes.empty;
    rexmit_at = [||];
  }

let high_ack t = t.high_ack

let next_seq t = t.next_seq

let register_send t =
  let s = t.next_seq in
  t.next_seq <- s + 1;
  s

let marked t seq =
  let off = seq - t.high_ack and cap = Bytes.length t.marks in
  if off >= 0 && off < cap then
    Char.code (Bytes.unsafe_get t.marks (seq land (cap - 1)))
  else 0

let flags t seq =
  let f = marked t seq in
  if f = 0 && seq >= t.high_ack && seq < t.lost_below then f_lost else f

let rec pow2_above n cap = if n < cap then cap else pow2_above n (2 * cap)

let grow t off =
  let old = t.marks and times = t.rexmit_at in
  let cap = pow2_above off 16 in
  let marks = Bytes.make cap '\000' and rexmit_at = Array.make cap 0.0 in
  for seq = t.high_ack to t.high_ack + Bytes.length old - 1 do
    let i = seq land (Bytes.length old - 1) and j = seq land (cap - 1) in
    Bytes.set marks j (Bytes.get old i);
    rexmit_at.(j) <- times.(i)
  done;
  t.marks <- marks;
  t.rexmit_at <- rexmit_at

let set t seq f =
  if seq - t.high_ack >= Bytes.length t.marks then grow t (seq - t.high_ack);
  Bytes.unsafe_set t.marks (seq land (Bytes.length t.marks - 1)) (Char.unsafe_chr f)

let covers t seq = seq < t.high_ack || marked t seq land f_sacked <> 0

let reported t seq = seq < t.high_ack || flags t seq <> 0

let is_lost t seq = flags t seq land f_lost <> 0

let needs_rexmit t seq = flags t seq land (f_lost lor f_rexmitted) = f_lost

let accounted t = t.high_ack + t.sacked_cnt + t.lost_cnt - t.rexmit_out

let pipe t = t.next_seq - accounted t

let in_flight_window t = t.next_seq - t.high_ack

let no_report (_ : int) = ()

(* Returns how far the cumulative point moved (previously SACKed
   positions count as newly acknowledged too). *)
let advance_cum t ~next_seq ack f =
  if ack <= t.high_ack then 0
  else begin
    let ack = if ack < next_seq then ack else next_seq in
    let before = t.high_ack and cap = Bytes.length t.marks in
    for seq = before to ack - 1 do
      let fl = flags t seq in
      if fl land f_sacked <> 0 then t.sacked_cnt <- t.sacked_cnt - 1
      else begin
        f seq;
        if fl land f_lost <> 0 then t.lost_cnt <- t.lost_cnt - 1;
        if fl land f_rexmitted <> 0 then t.rexmit_out <- t.rexmit_out - 1
      end;
      if seq - before < cap then begin
        Bytes.unsafe_set t.marks (seq land (cap - 1)) '\000';
        t.rexmit_at.(seq land (cap - 1)) <- 0.0
      end
    done;
    t.high_ack <- ack;
    if t.loss_floor < ack then t.loss_floor <- ack;
    ack - before
  end

let rec sack_range t seq hi f newly =
  if seq >= hi then newly
  else begin
    let fl = flags t seq in
    if fl land f_sacked <> 0 then sack_range t (seq + 1) hi f newly
    else begin
      if fl land f_lost <> 0 then t.lost_cnt <- t.lost_cnt - 1;
      if fl land f_rexmitted <> 0 then t.rexmit_out <- t.rexmit_out - 1;
      set t seq f_sacked;
      t.sacked_cnt <- t.sacked_cnt + 1;
      if seq > t.highest_sacked then t.highest_sacked <- seq;
      f seq;
      sack_range t (seq + 1) hi f (newly + 1)
    end
  end

let sack t ~next_seq ~lo ~hi f =
  sack_range t (Stdlib.max lo t.high_ack) (Stdlib.min hi next_seq) f 0

let mark_lost t ~next_seq seq =
  let fl = flags t seq in
  if seq < t.high_ack || seq >= next_seq || fl land (f_sacked lor f_lost) <> 0
  then false
  else begin
    set t seq (fl lor f_lost);
    t.lost_cnt <- t.lost_cnt + 1;
    true
  end

(* A packet is lost once a packet >= seq + dupthresh has been SACKed;
   only the range [loss_floor, highest_sacked - dupthresh] can contain
   fresh losses. *)
let rec mark_lost_range t ~next_seq seq upper f found =
  if seq > upper then found
  else if mark_lost t ~next_seq seq then begin
    f seq;
    mark_lost_range t ~next_seq (seq + 1) upper f (found + 1)
  end
  else mark_lost_range t ~next_seq (seq + 1) upper f found

let detect_losses t ~next_seq ~dupthresh f =
  let upper = t.highest_sacked - dupthresh in
  if upper < t.loss_floor then 0
  else begin
    let found = mark_lost_range t ~next_seq t.loss_floor upper f 0 in
    t.loss_floor <- upper + 1;
    found
  end

let rec sack_blocks t = function
  | [] -> ()
  | { Wire.block_lo; block_hi } :: rest ->
      ignore (sack t ~next_seq:t.next_seq ~lo:block_lo ~hi:block_hi no_report : int);
      sack_blocks t rest

(* One call per ack instead of one for the cumulative advance, one per
   SACK block and one for loss detection rebuilding lists between the
   steps.  It returns a count rather than a tuple of counts and lists:
   the sender reads how far the cumulative point moved off
   {!high_ack}. *)
(* lint: hot process_ack -- once per received ack on the sender fast
   path; counts only, no tuple or sequence list *)
let process_ack t ~cum_ack ~blocks ~dupthresh =
  ignore (advance_cum t ~next_seq:t.next_seq cum_ack no_report : int);
  sack_blocks t blocks;
  detect_losses t ~next_seq:t.next_seq ~dupthresh no_report

(* Only retransmitted marks are rewritten; the retransmission is
   presumed lost as well, which allows resending. *)
let mark_all_lost t ~next_seq =
  if t.rexmit_out > 0 then
    for seq = t.high_ack to Stdlib.min next_seq (t.high_ack + Bytes.length t.marks) - 1 do
      let fl = marked t seq in
      if fl land f_rexmitted <> 0 then set t seq (fl land lnot f_rexmitted)
    done;
  let lost = next_seq - t.high_ack - t.sacked_cnt in
  let marked = lost - t.lost_cnt in
  t.rexmit_out <- 0;
  t.lost_cnt <- lost;
  t.lost_below <- next_seq;
  marked

(* Lost packets are rare and near high_ack; a scan bounded by the first
   candidate keeps this cheap.  A top-level loop, not a local closure:
   the sender asks once per transmission opportunity. *)
let rec scan_retransmit t seq =
  if seq >= t.next_seq then None
  else if needs_rexmit t seq then Some seq
  else scan_retransmit t (seq + 1)

let next_retransmit t =
  if t.lost_cnt - t.rexmit_out <= 0 then None else scan_retransmit t t.high_ack

let mark_retransmitted ?(at = 0.0) t seq =
  if not (is_lost t seq) then
    invalid_arg "Scoreboard.mark_retransmitted: not lost";
  if not (needs_rexmit t seq) then
    invalid_arg "Scoreboard.mark_retransmitted: already retransmitted";
  set t seq (flags t seq lor f_rexmitted);
  t.rexmit_at.(seq land (Bytes.length t.marks - 1)) <- at;
  t.rexmit_out <- t.rexmit_out + 1

(* A retransmission older than [before] is presumed lost itself: the
   packet becomes eligible for another retransmission without waiting
   for the (much costlier) global timeout. *)
let expire_rexmits t ~next_seq ~before f =
  if t.rexmit_out > 0 then
    for seq = t.high_ack to Stdlib.min next_seq (t.high_ack + Bytes.length t.marks) - 1 do
      let fl = marked t seq in
      if fl land f_rexmitted <> 0
         && t.rexmit_at.(seq land (Bytes.length t.marks - 1)) < before
      then begin
        set t seq (fl land lnot f_rexmitted);
        t.rexmit_out <- t.rexmit_out - 1;
        f seq
      end
    done

(* Karn's-algorithm support: does the (clamped) range [lo, hi) hold a
   retransmitted packet?  Must be asked before [process_ack] advances
   the cumulative point — advancing clears the slots.  The scan is
   bounded by the window, and by [rexmit_out = 0] in the common case. *)
let rec rexmit_in t seq hi =
  seq < hi && (marked t seq land f_rexmitted <> 0 || rexmit_in t (seq + 1) hi)

let range_has_rexmit t ~lo ~hi =
  t.rexmit_out > 0 && rexmit_in t (Stdlib.max lo t.high_ack) (Stdlib.min hi t.next_seq)

let iter_sacked t f =
  for seq = t.high_ack to t.high_ack + Bytes.length t.marks - 1 do
    if marked t seq land f_sacked <> 0 then f seq
  done

let counts_agree t ~next_seq =
  let sacked = ref 0 and lost = ref 0 and rexmit = ref 0 and ok = ref true in
  for seq = t.high_ack to next_seq - 1 do
    let f = flags t seq in
    if f land f_sacked <> 0 then incr sacked;
    if f land f_lost <> 0 then incr lost;
    if f land f_rexmitted <> 0 then incr rexmit;
    (* sacked excludes lost; rexmitted implies lost *)
    if f land f_sacked <> 0 && f land f_lost <> 0 then ok := false;
    if f land f_rexmitted <> 0 && f land f_lost = 0 then ok := false
  done;
  !ok && !sacked = t.sacked_cnt && !lost = t.lost_cnt && !rexmit = t.rexmit_out
  && next_seq >= accounted t

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

let capture t ~next_seq =
  let es = ref [] in
  for seq = next_seq - 1 downto t.high_ack do
    let f = flags t seq in
    if f <> 0 then
      es :=
        {
          e_seq = seq;
          e_sacked = f land f_sacked <> 0;
          e_lost = f land f_lost <> 0;
          e_rexmitted = f land f_rexmitted <> 0;
          e_rexmit_time =
            (if marked t seq = 0 then 0.0
             else t.rexmit_at.(seq land (Bytes.length t.marks - 1)));
        }
        :: !es
  done;
  {
    s_entries = !es;
    s_high_ack = t.high_ack;
    s_next_seq = next_seq;
    s_highest_sacked = t.highest_sacked;
    s_sacked_cnt = t.sacked_cnt;
    s_lost_cnt = t.lost_cnt;
    s_rexmit_out = t.rexmit_out;
    s_loss_floor = t.loss_floor;
  }

let restore t st =
  t.high_ack <- st.s_high_ack;
  t.next_seq <- st.s_next_seq;
  t.lost_below <- st.s_high_ack;
  t.marks <- Bytes.empty;
  t.rexmit_at <- [||];
  List.iter
    (fun e ->
      set t e.e_seq
        ((if e.e_sacked then f_sacked else 0)
        lor (if e.e_lost then f_lost else 0)
        lor if e.e_rexmitted then f_rexmitted else 0);
      t.rexmit_at.(e.e_seq land (Bytes.length t.marks - 1)) <- e.e_rexmit_time)
    st.s_entries;
  t.highest_sacked <- st.s_highest_sacked;
  t.sacked_cnt <- st.s_sacked_cnt;
  t.lost_cnt <- st.s_lost_cnt;
  t.rexmit_out <- st.s_rexmit_out;
  t.loss_floor <- st.s_loss_floor

module For_testing = struct
  let advance_cum t ack = advance_cum t ~next_seq:t.next_seq ack no_report
  let mark_sacked t ~lo ~hi = sack t ~next_seq:t.next_seq ~lo ~hi no_report

  let detect_losses t ~dupthresh =
    let lost = ref [] in
    ignore (detect_losses t ~next_seq:t.next_seq ~dupthresh (fun s -> lost := s :: !lost));
    List.rev !lost

  let mark_lost t seq = mark_lost t ~next_seq:t.next_seq seq
  let highest_sacked t = t.highest_sacked
  let check_invariants t = assert (counts_agree t ~next_seq:t.next_seq)
end
