(* Reference model for test_sender_model: the RLA sender as it stood
   when it kept one full SACK scoreboard per receiver, with coverage,
   pending and queued sets in hash tables.  The scoreboard and the
   per-receiver state are copied along with it, so the model does not
   move when the library does.  Its [capture] and [snapshot] build the
   library's own record types, so the test compares the two with one
   structural equality. *)

module Params = Rla.Params
module Wire = Rla.Wire
module Receiver = Rla.Receiver

module Scoreboard = struct
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
  | { Tcp.Wire.block_lo; block_hi } :: rest ->
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

type entry_state = Tcp.Scoreboard.entry_state = {
  e_seq : int;
  e_sacked : bool;
  e_lost : bool;
  e_rexmitted : bool;
  e_rexmit_time : float;
}

type state = Tcp.Scoreboard.state = {
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

end

module Rcv_state = struct
type t = {
  addr : Net.Packet.addr;
  params : Params.t;
  session_start : float;
  board : Scoreboard.t;
  srtt : Stats.Ewma.t;
  interval : Stats.Ewma.t;
  mutable cperiod_start : float;
  mutable last_signal : float;
  mutable signals : int;
  mutable acks : int;
  mutable active : bool;
}

let create ~addr ~params ~session_start ?(board_start = 0) () =
  {
    addr;
    params;
    session_start;
    board = Scoreboard.create ~start:board_start ();
    srtt = Stats.Ewma.create ~weight:params.Params.srtt_weight;
    interval = Stats.Ewma.create ~weight:params.Params.interval_ewma_weight;
    cperiod_start = neg_infinity;
    last_signal = session_start;
    signals = 0;
    acks = 0;
    active = true;
  }

let addr t = t.addr

let board t = t.board

let active t = t.active

let deactivate t = t.active <- false

let srtt t = Stats.Ewma.value t.srtt

let observe_rtt t sample = Stats.Ewma.update t.srtt sample

let signals t = t.signals

let count_ack t = t.acks <- t.acks + 1

let register_losses t ~now =
  let window = t.params.Params.group_rtt_factor *. srtt t in
  if now -. t.cperiod_start <= window then false
  else begin
    t.cperiod_start <- now;
    (* The first signal's "interval" is measured from session start,
       which bootstraps the EWMA without a special case. *)
    Stats.Ewma.update t.interval (now -. t.last_signal);
    t.last_signal <- now;
    t.signals <- t.signals + 1;
    true
  end

let mean_signal_interval t ~now =
  if t.signals = 0 then infinity
  else
    (* Aging: a receiver silent for longer than its historical interval
       should not keep a stale "frequent loss" status. *)
    let interval = Stats.Ewma.value t.interval
    and silent = now -. t.last_signal in
    if interval >= silent then interval else silent

let is_troubled t ~now ~min_interval ~eta =
  t.signals > 0 && mean_signal_interval t ~now <= eta *. min_interval

type state = Rla.Rcv_state.state = {
  s_board : Scoreboard.state;
  s_srtt : Stats.Ewma.state;
  s_interval : Stats.Ewma.state;
  s_cperiod_start : float;
  s_last_signal : float;
  s_signals : int;
  s_acks : int;
  s_active : bool;
}

let capture t =
  {
    s_board = Scoreboard.capture t.board;
    s_srtt = Stats.Ewma.capture t.srtt;
    s_interval = Stats.Ewma.capture t.interval;
    s_cperiod_start = t.cperiod_start;
    s_last_signal = t.last_signal;
    s_signals = t.signals;
    s_acks = t.acks;
    s_active = t.active;
  }

let restore t st =
  Scoreboard.restore t.board st.s_board;
  Stats.Ewma.restore t.srtt st.s_srtt;
  Stats.Ewma.restore t.interval st.s_interval;
  t.cperiod_start <- st.s_cperiod_start;
  t.last_signal <- st.s_last_signal;
  t.signals <- st.s_signals;
  t.acks <- st.s_acks;
  t.active <- st.s_active
end

module Sender = struct
type coverage = {
  mutable covered : int;  (* receivers that have this packet *)
  mutable rexmitted : bool;
  sent_at : float;
}

type rexmit_target = Rla.Sender.rexmit_target = To_group | To_receivers of Net.Packet.addr list

(* Cached observability handles; sampling happens inside ack/timeout
   processing only (never from scheduled events or RNG draws), so
   instrumented and bare runs are bit-identical. *)
type taps = {
  reg : Obs.Registry.t;
  source : string;
  cwnd_s : Obs.Series.t;
  bytes_s : Obs.Series.t;
  cuts_c : Obs.Registry.counter;
  signals_c : Obs.Registry.counter;
}

(* The ack path allocates nothing of its own beyond the boxed floats it
   hands to other modules: the scoreboards report the sequence numbers
   an ack touched through [touch] (allocated once) into the reusable
   [touched] buffer instead of building lists, the timer is an event
   id with [-1] for none, and coverage lookups build no option.

   [cwnd]/[ssthresh] stay float fields of this mixed record on purpose:
   every ack passes [cwnd] to [Stats.Ewma.update], and a stored box is
   handed over as is, while an unboxed (all-float record) field would
   be boxed afresh for each such call. *)
type t = {
  net : Net.Network.t;
  params : Params.t;
  src : Net.Packet.addr;
  flow : Net.Packet.flow;
  group : Net.Packet.group;
  group_dest : Net.Packet.dest;  (* built once, not per packet *)
  mutable rcvrs : Rcv_state.t array;
  mutable n_active : int;
  mutable endpoints : Receiver.t list;
  rng : Sim.Rng.t;
  rto : Tcp.Rto.t;
  (* window state *)
  mutable cwnd : float;
  mutable ssthresh : float;
  awnd : Stats.Ewma.t;
  mutable last_window_cut : float;
  mutable next_seq : int;
  mutable mra : int;  (* max_reach_all: contiguous all-receiver frontier *)
  coverage : (int, coverage) Hashtbl.t;
  (* retransmission machinery *)
  pending : (int, unit) Hashtbl.t;  (* lost somewhere, decision not made *)
  mutable rexmit_queue : (int * rexmit_target) list;
  queued : (int, unit) Hashtbl.t;
  mutable touched : int array;  (* seqs the current ack touched ... *)
  mutable n_touched : int;  (* ... in its first [n_touched] slots *)
  mutable touch : int -> unit;  (* appends to [touched] *)
  mutable timer : Sim.Scheduler.event_id;  (* -1 = not armed *)
  mutable timeout_thunk : unit -> unit;
      (* one closure shared by every (re)arm, not one per arm *)
  mutable start_event : Sim.Scheduler.event_id option;
  (* counters *)
  mutable num_trouble : int;
  mutable window_cuts : int;
  mutable forced_cuts : int;
  mutable timeouts : int;
  mutable signals : int;
  mutable rexmits_multicast : int;
  mutable rexmits_unicast : int;
  mutable sent_new : int;
  cwnd_avg : Stats.Time_avg.t;
  rtt : Stats.Welford.t ref;  (* send -> covered-by-all, no-rexmit packets *)
  rtt_acks : Stats.Welford.t ref;  (* per-acknowledgment samples *)
  (* measurement baselines *)
  mutable meas_time : float;
  mutable meas_mra : int;
  mutable meas_signals : int;
  mutable meas_cuts : int;
  mutable meas_forced : int;
  mutable meas_timeouts : int;
  mutable meas_rexmits : int;
  mutable meas_sent_new : int;
  mutable meas_signals_per : int array;
  (* Derived O(1) aggregates over the active scoreboards (see
     [recompute_min_ack]/[recompute_pipes]); never captured — restore
     recomputes them. *)
  mutable mla_value : int;  (* min active high_ack *)
  mutable mla_count : int;  (* active boards sitting at [mla_value] *)
  mutable pipe_counts : int array;  (* active boards per pipe value *)
  mutable pipe_max : int;
  mutable slot_of : int array;  (* address -> its slot, -1 if none *)
  mutable taps : taps option;
}

let flow t = t.flow

let cwnd t = t.cwnd

let num_trouble_rcvr t = t.num_trouble

let max_reach_all t = t.mra

let congestion_signals t = t.signals

let window_cuts t = t.window_cuts

let forced_cuts t = t.forced_cuts

let timeouts t = t.timeouts

let receiver_endpoints t = t.endpoints

let now t = Net.Network.now t.net

let fold_active t f init =
  Array.fold_left
    (fun acc r -> if Rcv_state.active r then f acc r else acc)
    init t.rcvrs

(* [min_last_ack]/[max_pipe] gate every window-room check — once per
   new packet and retransmission — so the original O(n) folds cost
   O(n^2) per ack on large groups.  They are kept as exact caches
   instead: every scoreboard mutation site below refreshes them
   incrementally, and [create]/[restore]/membership changes recompute
   from scratch.  The caches are derived state only — the captured
   state format is unchanged and the values always equal the folds. *)

let recompute_min_ack t =
  let v =
    fold_active t
      (fun acc r -> Stdlib.min acc (Scoreboard.high_ack (Rcv_state.board r)))
      max_int
  in
  t.mla_value <- v;
  t.mla_count <-
    fold_active t
      (fun acc r ->
        if Scoreboard.high_ack (Rcv_state.board r) = v then acc + 1 else acc)
      0

(* An active board's cumulative ack moved [before -> after].  [before]
   can never be below the cached minimum, so only a departure from the
   minimum bucket can change it. *)
let note_high_ack_advance t ~before ~after =
  if after <> before && before = t.mla_value then begin
    t.mla_count <- t.mla_count - 1;
    if t.mla_count <= 0 then recompute_min_ack t
  end

let pipe_bucket_incr t p =
  if p >= Array.length t.pipe_counts then begin
    let grown =
      Array.make (Stdlib.max (p + 1) (Stdlib.max 8 (2 * Array.length t.pipe_counts))) 0
    in
    Array.blit t.pipe_counts 0 grown 0 (Array.length t.pipe_counts);
    t.pipe_counts <- grown
  end;
  t.pipe_counts.(p) <- t.pipe_counts.(p) + 1;
  if p > t.pipe_max then t.pipe_max <- p

let pipe_bucket_decr t p =
  t.pipe_counts.(p) <- t.pipe_counts.(p) - 1;
  if p = t.pipe_max && t.pipe_counts.(p) = 0 then begin
    let m = ref t.pipe_max in
    while !m > 0 && t.pipe_counts.(!m) = 0 do
      decr m
    done;
    t.pipe_max <- !m
  end

(* Incr before decr: when the pipe grows this raises the max directly
   and the vacated bucket never triggers a downward scan. *)
let note_pipe_change t ~before ~after =
  if after <> before then begin
    pipe_bucket_incr t after;
    pipe_bucket_decr t before
  end

let recompute_pipes t =
  Array.fill t.pipe_counts 0 (Array.length t.pipe_counts) 0;
  t.pipe_max <- 0;
  Array.iter
    (fun r ->
      if Rcv_state.active r then
        pipe_bucket_incr t (Scoreboard.pipe (Rcv_state.board r)))
    t.rcvrs

let min_last_ack t = t.mla_value

(* Every by-address lookup goes through [slot_of], a dense index from
   node id to the one slot holding that address (a re-joined address
   reuses its slot, so the slot stays put across drop/add).  It is
   derived state like the caches above: [create] builds it, a join at a
   new address extends it, [restore] rebuilds it. *)

let slot_of_addr t addr =
  if addr >= 0 && addr < Array.length t.slot_of then t.slot_of.(addr) else -1

(* lint: hot active_slot -- once per received ack: resolves the
   acknowledging receiver in O(1) where a slot scan cost O(n) *)
let active_slot t addr =
  let i = slot_of_addr t addr in
  if i >= 0 && Rcv_state.active t.rcvrs.(i) then i else -1

let index_slot t addr i =
  if addr >= Array.length t.slot_of then begin
    let grown =
      Array.make (Stdlib.max (addr + 1) (2 * Array.length t.slot_of)) (-1)
    in
    Array.blit t.slot_of 0 grown 0 (Array.length t.slot_of);
    t.slot_of <- grown
  end;
  t.slot_of.(addr) <- i

let rebuild_index t =
  t.slot_of <- [||];
  Array.iteri (fun i r -> index_slot t (Rcv_state.addr r) i) t.rcvrs

let signals_per_receiver t =
  Array.to_list
    (Array.map (fun r -> (Rcv_state.addr r, Rcv_state.signals r)) t.rcvrs)

(* Typed clamps: [if a >= b then a else b] is exactly [Stdlib.max a b]
   on floats, NaN and signed zeros included, and boxes nothing. *)
let at_least_one v = if 1.0 >= v then 1.0 else v

let set_cwnd t value =
  t.cwnd <- at_least_one value;
  Stats.Time_avg.update t.cwnd_avg ~time:(now t) ~value:t.cwnd

let halved_ssthresh t =
  let half = t.cwnd /. 2.0 in
  t.ssthresh <- (if 2.0 >= half then 2.0 else half)

(* Aligned (cwnd, bytes_acked-by-all) probe — both series get a sample
   at every call point, so their decimated sample times stay identical
   and exporters can zip them row by row. *)
let probe_flow t =
  match t.taps with
  | None -> ()
  | Some taps ->
      let time = now t in
      Obs.Series.add taps.cwnd_s ~time t.cwnd;
      Obs.Series.add taps.bytes_s ~time
        (float_of_int (t.mra * t.params.Params.data_size))

let probe_cut t ~forced =
  match t.taps with
  | None -> ()
  | Some taps ->
      Obs.Registry.incr taps.cuts_c;
      Obs.Registry.emit taps.reg ~time:(now t) ~source:taps.source
        ~event:(if forced then "forced_cut" else "window_cut")
        ~value:t.cwnd

(* --- troubled receivers and the cut probability ------------------- *)

let min_signal_interval t =
  fold_active t
    (fun acc r -> Stdlib.min acc (Rcv_state.mean_signal_interval r ~now:(now t)))
    infinity

let count_troubled t ~min_interval =
  let count =
    fold_active t
      (fun acc r ->
        if
          Rcv_state.is_troubled r ~now:(now t) ~min_interval
            ~eta:t.params.Params.eta
        then acc + 1
        else acc)
      0
  in
  t.num_trouble <- Stdlib.max 1 count

let recount_troubled t =
  match t.params.Params.trouble_counting with
  | Params.All_receivers -> t.num_trouble <- Stdlib.max 1 t.n_active
  | Params.Dynamic -> count_troubled t ~min_interval:(min_signal_interval t)

let max_srtt t =
  fold_active t (fun acc r -> Stdlib.max acc (Rcv_state.srtt r)) 0.0

(* [session_srtt] is [max_srtt t], folded once by the caller. *)
let pthresh t ~session_srtt r =
  let scale =
    match t.params.Params.rtt_scaling with
    | Params.Equal_rtt -> 1.0
    | Params.Rtt_power k ->
        if session_srtt <= 0.0 then 1.0
        else (Rcv_state.srtt r /. session_srtt) ** k
  in
  scale /. float_of_int t.num_trouble

let pthresh_for t addr =
  let i = slot_of_addr t addr in
  if i < 0 then invalid_arg "Sender.pthresh_for: unknown receiver";
  pthresh t ~session_srtt:(max_srtt t) t.rcvrs.(i)

(* Has every active receiver from slot [i] on reported on [seq] — as
   lost, or as delivered cumulatively or by SACK?  Stops at the first
   receiver that has not. *)
let rec reported_from t seq i =
  i >= Array.length t.rcvrs
  || (let r = t.rcvrs.(i) in
      let board = Rcv_state.board r in
      (not (Rcv_state.active r))
      || Scoreboard.is_lost board seq
      || seq < Scoreboard.high_ack board
      || Scoreboard.is_sacked board seq)
     && reported_from t seq (i + 1)

(* --- transmission -------------------------------------------------- *)

let cancel_timer t =
  if t.timer >= 0 then begin
    Sim.Scheduler.cancel (Net.Network.scheduler t.net) t.timer;
    t.timer <- -1
  end

let send_packet t ~seq ~dst ~rexmit =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src ~dst
      ~size:t.params.Params.data_size
      ~payload:(Wire.Rla_data { seq; sent_at = now t; rexmit })
  in
  Net.Network.send t.net pkt

(* The slowest active branch limits the send rate: the largest pipe
   over the per-receiver scoreboards (cached, see above). *)
let max_pipe t = t.pipe_max

let send_rexmit t seq target =
  Hashtbl.remove t.queued seq;
  (match Hashtbl.find_opt t.coverage seq with
  | Some c -> c.rexmitted <- true
  | None -> ());
  let requesters =
    match target with
    | To_group ->
        List.filter Rcv_state.active (Array.to_list t.rcvrs)
    | To_receivers addrs ->
        List.filter_map
          (fun a ->
            let i = active_slot t a in
            if i >= 0 then Some t.rcvrs.(i) else None)
          addrs
  in
  (* Mark the retransmission only on boards that still consider the
     packet lost (acks may have arrived since the decision). *)
  List.iter
    (fun r ->
      let board = Rcv_state.board r in
      if
        Scoreboard.is_lost board seq
        && not (Scoreboard.is_rexmitted board seq)
      then begin
        let p0 = Scoreboard.pipe board in
        Scoreboard.mark_retransmitted ~at:(now t) board seq;
        note_pipe_change t ~before:p0 ~after:(Scoreboard.pipe board)
      end)
    requesters;
  match target with
  | To_group ->
      t.rexmits_multicast <- t.rexmits_multicast + 1;
      send_packet t ~seq ~dst:t.group_dest ~rexmit:true
  | To_receivers _ ->
      (* Unicast only to requesters that are still active members: a
         receiver dropped between the decision and this send must not
         keep drawing retransmissions (or inflating the unicast
         counter). *)
      List.iter
        (fun r ->
          t.rexmits_unicast <- t.rexmits_unicast + 1;
          send_packet t ~seq
            ~dst:(Net.Packet.Unicast (Rcv_state.addr r))
            ~rexmit:true)
        requesters

let window_room t =
  max_pipe t < int_of_float t.cwnd
  && t.next_seq - min_last_ack t < t.params.Params.rcv_buffer

let rec arm_timer t =
  if t.timer < 0 && t.next_seq > t.mra then
    t.timer <-
      Sim.Scheduler.schedule_after
        (Net.Network.scheduler t.net)
        (Tcp.Rto.timeout t.rto) t.timeout_thunk

and restart_timer t =
  cancel_timer t;
  arm_timer t

and try_send t =
  let budget = ref t.params.Params.max_burst in
  while !budget > 0 && window_room t do
    match t.rexmit_queue with
    | (seq, target) :: rest ->
        t.rexmit_queue <- rest;
        send_rexmit t seq target;
        decr budget
    | [] ->
        let seq = t.next_seq in
        t.next_seq <- seq + 1;
        for i = 0 to Array.length t.rcvrs - 1 do
          let r = t.rcvrs.(i) in
          let board = Rcv_state.board r in
          if Rcv_state.active r then begin
            let p0 = Scoreboard.pipe board in
            let s = Scoreboard.register_send board in
            assert (s = seq);
            note_pipe_change t ~before:p0 ~after:(Scoreboard.pipe board)
          end
          else begin
            let s = Scoreboard.register_send board in
            assert (s = seq)
          end
        done;
        Hashtbl.replace t.coverage seq
          { covered = 0; rexmitted = false; sent_at = now t };
        t.sent_new <- t.sent_new + 1;
        send_packet t ~seq ~dst:t.group_dest ~rexmit:false;
        decr budget
  done;
  arm_timer t

and on_timeout t =
  if t.next_seq > t.mra then begin
    t.timeouts <- t.timeouts + 1;
    t.window_cuts <- t.window_cuts + 1;
    halved_ssthresh t;
    set_cwnd t 1.0;
    probe_cut t ~forced:false;
    probe_flow t;
    t.last_window_cut <- now t;
    Tcp.Rto.backoff t.rto;
    (* Everything unacknowledged anywhere is presumed lost; rebuild the
       retransmission plan from scratch. *)
    Array.iter
      (fun r -> ignore (Scoreboard.mark_all_lost (Rcv_state.board r)))
      t.rcvrs;
    recompute_pipes t;
    t.rexmit_queue <- [];
    Hashtbl.reset t.queued;
    Hashtbl.reset t.pending;
    for seq = t.mra to t.next_seq - 1 do
      if Hashtbl.mem t.coverage seq then schedule_rexmit_decision t seq
    done
  end;
  try_send t

(* Decide (or defer) how to retransmit [seq].  The paper's rule: wait
   until every receiver has reported on the packet, then multicast if
   more than [rexmit_thresh] receivers request it, unicast otherwise. *)
and schedule_rexmit_decision t seq =
  if not (Hashtbl.mem t.queued seq) then begin
    if not (reported_from t seq 0) then Hashtbl.replace t.pending seq ()
    else begin
      Hashtbl.remove t.pending seq;
      let requesters =
        fold_active t
          (fun acc r ->
            if Scoreboard.is_lost (Rcv_state.board r) seq then
              Rcv_state.addr r :: acc
            else acc)
          []
      in
      match requesters with
      | [] -> ()
      | addrs ->
          let target =
            if List.length addrs > t.params.Params.rexmit_thresh then To_group
            else To_receivers addrs
          in
          t.rexmit_queue <- t.rexmit_queue @ [ (seq, target) ];
          Hashtbl.replace t.queued seq ()
    end
  end

(* --- acknowledgment processing ------------------------------------- *)

(* Coverage lookups use [Hashtbl.find] with an exception case rather
   than [find_opt], so no [Some] cell is built per ack. *)
let advance_frontier t =
  let n = t.n_active in
  let progressed = ref false in
  let continue = ref true in
  while !continue do
    match Hashtbl.find t.coverage t.mra with
    | c when c.covered >= n ->
        if not c.rexmitted then
          Stats.Welford.add !(t.rtt) (now t -. c.sent_at);
        Hashtbl.remove t.coverage t.mra;
        (* A pending decision for a packet everyone now has is moot. *)
        Hashtbl.remove t.pending t.mra;
        t.mra <- t.mra + 1;
        progressed := true
    | _ | (exception Not_found) -> continue := false
  done;
  if !progressed then restart_timer t

(* A packet newly covered by one receiver; on full coverage the window
   opens (rule 4: cwnd <- cwnd + 1/cwnd once ACKed by all). *)
let cover t seq =
  match Hashtbl.find t.coverage seq with
  | exception Not_found -> ()
  | c ->
      c.covered <- c.covered + 1;
      if c.covered >= t.n_active then begin
        if t.cwnd < t.ssthresh then set_cwnd t (t.cwnd +. 1.0)
        else set_cwnd t (t.cwnd +. (1.0 /. t.cwnd))
      end

let touch t seq =
  let n = t.n_touched in
  if n = Array.length t.touched then begin
    let grown = Array.make (Stdlib.max 16 (2 * n)) 0 in
    Array.blit t.touched 0 grown 0 n;
    t.touched <- grown
  end;
  t.touched.(n) <- seq;
  t.n_touched <- n + 1

let rec sack_blocks t board = function
  | [] -> ()
  | { Tcp.Wire.block_lo; block_hi } :: rest ->
      ignore
        (Scoreboard.mark_sacked_iter board ~lo:block_lo ~hi:block_hi
           t.touch
          : int);
      sack_blocks t board rest

(* Ascending insertion sort of [touched.(0 .. n_touched - 1)], in
   place: an ack touches a handful of sequence numbers. *)
let sort_touched t =
  let a = t.touched in
  for i = 1 to t.n_touched - 1 do
    let x = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > x do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- x
  done

(* One RTT sample feeds three estimators.  Kept out of line so the
   sample is boxed once, at this call, and the box is shared: a float
   let-bound in [on_ack] would be boxed again for each consumer. *)
let[@inline never] record_rtt t r sample =
  Rcv_state.observe_rtt r sample;
  Stats.Welford.add !(t.rtt_acks) sample;
  Tcp.Rto.sample t.rto sample

(* The O(n) aggregates (signal-interval minimum, session srtt) are
   folded once per signal and shared by every rule that reads them. *)
let congestion_action t r =
  let acts =
    match t.params.Params.trouble_counting with
    | Params.All_receivers ->
        recount_troubled t;
        true
    | Params.Dynamic ->
        let min_interval = min_signal_interval t in
        count_troubled t ~min_interval;
        Rcv_state.is_troubled r ~now:(now t) ~min_interval
          ~eta:t.params.Params.eta
  in
  if acts then begin
    let session_srtt = max_srtt t in
    (* The horizon guards the session-wide cut cadence, so it uses the
       session round-trip time (the largest branch srtt); keying it on
       the signaling receiver's srtt would let a nearby receiver force
       cuts an order of magnitude too often on heterogeneous trees
       (the paper observes zero forced cuts in its figure-10 runs). *)
    let horizon =
      t.params.Params.forced_cut_factor *. Stats.Ewma.value t.awnd
      *. Stdlib.max (Rcv_state.srtt r) session_srtt
    in
    let do_cut ~forced =
      t.window_cuts <- t.window_cuts + 1;
      if forced then t.forced_cuts <- t.forced_cuts + 1;
      halved_ssthresh t;
      set_cwnd t t.ssthresh;
      probe_cut t ~forced;
      t.last_window_cut <- now t
    in
    if now t -. t.last_window_cut > horizon then do_cut ~forced:true
    else if Sim.Rng.uniform t.rng <= pthresh t ~session_srtt r then
      do_cut ~forced:false
  end

(* The invariants that make the touched-only rule above equal to a full
   rescan of [pending] after every ack. *)
let check_ack_invariants t =
  Array.iteri
    (fun i r ->
      Sim.Invariant.require
        (slot_of_addr t (Rcv_state.addr r) = i)
        (fun () ->
          Printf.sprintf "Sender: slot %d (address %d) indexed as slot %d" i
            (Rcv_state.addr r)
            (slot_of_addr t (Rcv_state.addr r))))
    t.rcvrs;
  let indexed =
    Array.fold_left (fun acc i -> if i >= 0 then acc + 1 else acc) 0 t.slot_of
  in
  Sim.Invariant.require
    (indexed = Array.length t.rcvrs
    && fold_active t (fun acc _ -> acc + 1) 0 = t.n_active)
    (fun () ->
      Printf.sprintf "Sender: %d addresses indexed for %d slots (%d active)"
        indexed (Array.length t.rcvrs) t.n_active);
  Hashtbl.iter
    (fun seq () ->
      Sim.Invariant.require
        (seq >= t.mra && seq < t.next_seq && not (reported_from t seq 0))
        (fun () ->
          Printf.sprintf
            "Sender: pending seq %d is outside [%d, %d) or already reported \
             by every receiver"
            seq t.mra t.next_seq))
    t.pending

(* [touched] collects, in order, the packets this ack newly
   acknowledged, newly SACKed, newly found lost and revived; each rule
   below reads its own stretch of it. *)
let on_ack t r ~cum_ack ~blocks ~echo ~ece =
  Rcv_state.count_ack r;
  record_rtt t r (now t -. echo);
  let board = Rcv_state.board r in
  let high_ack0 = Scoreboard.high_ack board in
  let pipe0 = Scoreboard.pipe board in
  t.n_touched <- 0;
  ignore (Scoreboard.advance_cum_iter board cum_ack t.touch : int);
  sack_blocks t board blocks;
  let covered = t.n_touched in
  for i = 0 to covered - 1 do
    cover t t.touched.(i)
  done;
  advance_frontier t;
  (* Update the moving average of the window on every ack. *)
  Stats.Ewma.update t.awnd t.cwnd;
  ignore
    (Scoreboard.detect_losses_iter board
       ~dupthresh:t.params.Params.dupthresh t.touch
      : int);
  let lost = t.n_touched in
  for i = covered to lost - 1 do
    schedule_rexmit_decision t t.touched.(i)
  done;
  (* Re-request retransmissions that have themselves gone unanswered
     for ~2 srtt on this branch. *)
  let srtt_i = Rcv_state.srtt r in
  if srtt_i > 0.0 && t.params.Params.rexmit_timeout_factor < infinity then begin
    Scoreboard.expire_rexmits_iter board
      ~before:(now t -. (t.params.Params.rexmit_timeout_factor *. srtt_i))
      t.touch;
    for i = lost to t.n_touched - 1 do
      schedule_rexmit_decision t t.touched.(i)
    done
  end;
  (* Fresh coverage may complete the report set of pending packets.  A
     pending packet waits on some receiver that has not reported on it,
     and only this ack's receiver changed its reports — on exactly the
     packets it newly acknowledged, SACKed or lost — so only those can
     have become ready.  Retransmitting never un-reports a packet, and
     packets the frontier passed left [pending] in [advance_frontier].
     Each touched packet is taken once, in ascending order; deciding
     on one never changes another's pending membership. *)
  if Hashtbl.length t.pending > 0 then begin
    sort_touched t;
    for i = 0 to t.n_touched - 1 do
      let seq = t.touched.(i) in
      if (i = 0 || t.touched.(i - 1) <> seq) && Hashtbl.mem t.pending seq
      then begin
        Hashtbl.remove t.pending seq;
        if seq >= t.mra then schedule_rexmit_decision t seq
      end
    done
  end;
  (* An ECN echo is a congestion indication exactly like a detected
     loss: grouped per congestion period, then randomly listened to. *)
  if (lost > covered || ece) && Rcv_state.register_losses r ~now:(now t) then begin
    t.signals <- t.signals + 1;
    (match t.taps with
    | None -> ()
    | Some taps -> Obs.Registry.incr taps.signals_c);
    congestion_action t r
  end;
  (* All of this ack's mutations to [board] are done; bring the cached
     aggregates back in sync before [try_send] reads them. *)
  note_high_ack_advance t ~before:high_ack0
    ~after:(Scoreboard.high_ack board);
  note_pipe_change t ~before:pipe0 ~after:(Scoreboard.pipe board);
  probe_flow t;
  try_send t;
  if !Sim.Invariant.enabled then check_ack_invariants t

(* Stop listening to one receiver — the slow-receiver option of
   section 4.3.  Coverage counts for outstanding packets are rebuilt
   from the remaining active scoreboards so the acked-by-all frontier
   can move past the dropped receiver's holes. *)
let drop_receiver t addr =
  match active_slot t addr with
  | -1 -> false
  | i ->
      let victim = t.rcvrs.(i) in
      if t.n_active <= 1 then
        invalid_arg "Sender.drop_receiver: cannot drop the last receiver";
      Rcv_state.deactivate victim;
      t.n_active <- t.n_active - 1;
      (* Recompute coverage over the survivors; grow the window for
         packets this completes (rule 4 still applies to them). *)
      let seqs = Hashtbl.fold (fun seq _ acc -> seq :: acc) t.coverage [] in
      List.iter
        (fun seq ->
          match Hashtbl.find_opt t.coverage seq with
          | None -> ()
          | Some c ->
              c.covered <-
                fold_active t
                  (fun acc r ->
                    let board = Rcv_state.board r in
                    if
                      seq < Scoreboard.high_ack board
                      || Scoreboard.is_sacked board seq
                    then acc + 1
                    else acc)
                  0)
        (List.sort Int.compare seqs);
      advance_frontier t;
      recount_troubled t;
      (* Retransmission decisions that were waiting on the victim may
         now be ready. *)
      let pending_seqs =
        Hashtbl.fold (fun seq () acc -> seq :: acc) t.pending []
      in
      List.iter
        (fun seq ->
          Hashtbl.remove t.pending seq;
          if seq >= t.mra then schedule_rexmit_decision t seq)
        (List.sort Int.compare pending_seqs);
      recompute_min_ack t;
      recompute_pipes t;
      try_send t;
      true

(* Runtime join — the membership counterpart of [drop_receiver].  The
   newcomer is only responsible for packets from the current sequence
   frontier on: its endpoint acknowledges from [next_seq] and its
   scoreboard starts there, so it neither stalls on — nor gates —
   packets sent before it joined.  Re-joining an address that was
   dropped earlier reuses its slot with fresh state (fresh scoreboard,
   srtt, signal history). *)
let add_receiver t addr =
  match active_slot t addr with
  | i when i >= 0 -> false
  | _ ->
      if addr = t.src then
        invalid_arg "Sender.add_receiver: source cannot join its own group";
      (match Net.Network.node t.net addr with
      | exception Not_found ->
          invalid_arg "Sender.add_receiver: unknown address"
      | _ -> ());
      Net.Network.graft_multicast t.net ~group:t.group ~src:t.src ~member:addr;
      let endpoint =
        Receiver.create ~net:t.net ~node:addr ~flow:t.flow ~sender:t.src
          ~ack_jitter:t.params.Params.ack_jitter ~start:t.next_seq ()
      in
      t.endpoints <- t.endpoints @ [ endpoint ];
      let state =
        Rcv_state.create ~addr ~params:t.params ~session_start:(now t)
          ~board_start:t.next_seq ()
      in
      (match slot_of_addr t addr with
      | -1 ->
          index_slot t addr (Array.length t.rcvrs);
          t.rcvrs <- Array.append t.rcvrs [| state |];
          t.meas_signals_per <- Array.append t.meas_signals_per [| 0 |]
      | i ->
          t.rcvrs.(i) <- state;
          t.meas_signals_per.(i) <- 0);
      t.n_active <- t.n_active + 1;
      (* Outstanding packets predate the join; the newcomer's board
         already counts them delivered (seq < its high_ack), so their
         coverage counts grow by one to keep the [covered >= n_active]
         frontier/window rules consistent. *)
      Hashtbl.iter (fun _ c -> c.covered <- c.covered + 1) t.coverage;
      recount_troubled t;
      recompute_min_ack t;
      recompute_pipes t;
      try_send t;
      true

let active_receivers t =
  fold_active t (fun acc r -> Rcv_state.addr r :: acc) [] |> List.rev

(* --- lifecycle ------------------------------------------------------ *)

type snapshot = Rla.Sender.snapshot = {
  time : float;
  delivered : int;
  throughput : float;
  send_rate : float;
  cwnd_now : float;
  cwnd_avg : float;
  rtt_avg : float;
  rtt_all_avg : float;
  congestion_signals : int;
  window_cuts : int;
  forced_cuts : int;
  timeouts : int;
  rexmits : int;
  signals_per_receiver : (Net.Packet.addr * int) list;
}

let reset_measurement (t : t) =
  Stats.Time_avg.reset t.cwnd_avg ~start:(now t) ~value:t.cwnd;
  t.rtt := Stats.Welford.create ();
  t.rtt_acks := Stats.Welford.create ();
  t.meas_sent_new <- t.sent_new;
  t.meas_time <- now t;
  t.meas_mra <- t.mra;
  t.meas_signals <- t.signals;
  t.meas_cuts <- t.window_cuts;
  t.meas_forced <- t.forced_cuts;
  t.meas_timeouts <- t.timeouts;
  t.meas_rexmits <- t.rexmits_multicast + t.rexmits_unicast;
  t.meas_signals_per <- Array.map Rcv_state.signals t.rcvrs

let snapshot t =
  let span = now t -. t.meas_time in
  let delivered = t.mra - t.meas_mra in
  let sent =
    t.sent_new - t.meas_sent_new + t.rexmits_multicast + t.rexmits_unicast
    - t.meas_rexmits
  in
  let rate n = if span <= 0.0 then 0.0 else float_of_int n /. span in
  {
    time = now t;
    delivered;
    throughput = rate delivered;
    send_rate = rate sent;
    cwnd_now = t.cwnd;
    cwnd_avg = Stats.Time_avg.average t.cwnd_avg ~upto:(now t);
    rtt_avg = Stats.Welford.mean !(t.rtt_acks);
    rtt_all_avg = Stats.Welford.mean !(t.rtt);
    congestion_signals = t.signals - t.meas_signals;
    window_cuts = t.window_cuts - t.meas_cuts;
    forced_cuts = t.forced_cuts - t.meas_forced;
    timeouts = t.timeouts - t.meas_timeouts;
    rexmits = t.rexmits_multicast + t.rexmits_unicast - t.meas_rexmits;
    signals_per_receiver =
      Array.to_list
        (Array.mapi
           (fun i r ->
             (Rcv_state.addr r, Rcv_state.signals r - t.meas_signals_per.(i)))
           t.rcvrs);
  }

let create ~net ~src ~receivers ?(params = Params.default) ?(start_at = 0.0)
    ?endpoints:endpoint_addrs ?(tree = `Install) () =
  if receivers = [] then invalid_arg "Sender.create: no receivers";
  if List.length (List.sort_uniq Int.compare receivers) <> List.length receivers
  then invalid_arg "Sender.create: a receiver is listed twice";
  let flow = Net.Network.fresh_flow net in
  let group =
    match tree with
    | `Install ->
        let group = Net.Network.fresh_group net in
        Net.Network.install_multicast net ~group ~src ~members:receivers;
        group
    | `Preinstalled group -> group
  in
  let endpoints =
    List.map
      (fun node ->
        Receiver.create ~net ~node ~flow ~sender:src
          ~ack_jitter:params.Params.ack_jitter ())
      (Option.value endpoint_addrs ~default:receivers)
  in
  let start = Net.Network.now net +. start_at in
  let t =
    {
      net;
      params;
      src;
      flow;
      group;
      group_dest = Net.Packet.Multicast group;
      rcvrs =
        Array.of_list
          (List.map
             (fun addr ->
               Rcv_state.create ~addr ~params ~session_start:start ())
             receivers);
      n_active = List.length receivers;
      endpoints;
      rng = Net.Network.fork_rng net;
      rto = Tcp.Rto.create ~min_rto:params.Params.min_rto ();
      cwnd = at_least_one params.Params.init_cwnd;
      ssthresh = params.Params.init_ssthresh;
      awnd = Stats.Ewma.create ~weight:params.Params.awnd_weight;
      last_window_cut = start;
      next_seq = 0;
      mra = 0;
      coverage = Hashtbl.create 1024;
      pending = Hashtbl.create 64;
      rexmit_queue = [];
      queued = Hashtbl.create 64;
      touched = [||];
      n_touched = 0;
      touch = ignore;
      timer = -1;
      timeout_thunk = ignore;
      start_event = None;
      num_trouble = 1;
      window_cuts = 0;
      forced_cuts = 0;
      timeouts = 0;
      signals = 0;
      rexmits_multicast = 0;
      rexmits_unicast = 0;
      sent_new = 0;
      cwnd_avg =
        Stats.Time_avg.create ~start ~value:(at_least_one params.Params.init_cwnd);
      rtt = ref (Stats.Welford.create ());
      rtt_acks = ref (Stats.Welford.create ());
      meas_time = start;
      meas_mra = 0;
      meas_signals = 0;
      meas_cuts = 0;
      meas_forced = 0;
      meas_timeouts = 0;
      meas_rexmits = 0;
      meas_sent_new = 0;
      meas_signals_per = Array.make (List.length receivers) 0;
      mla_value = 0;
      mla_count = 0;
      pipe_counts = [||];
      pipe_max = 0;
      slot_of = [||];
      taps = None;
    }
  in
  rebuild_index t;
  recompute_min_ack t;
  recompute_pipes t;
  t.timeout_thunk <-
    (fun () ->
      t.timer <- -1;
      on_timeout t);
  t.touch <- touch t;
  (match Net.Network.observer net with
  | None -> ()
  | Some reg ->
      let source = Printf.sprintf "rla.flow%d" flow in
      t.taps <-
        Some
          {
            reg;
            source;
            cwnd_s = Obs.Registry.series reg (source ^ ".cwnd");
            bytes_s = Obs.Registry.series reg (source ^ ".bytes_acked");
            cuts_c = Obs.Registry.counter reg (source ^ ".window_cuts");
            signals_c = Obs.Registry.counter reg (source ^ ".signals");
          };
      probe_flow t);
  Stats.Ewma.update t.awnd t.cwnd;
  Net.Node.attach (Net.Network.node net src) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Rla_ack { rcvr; cum_ack; blocks; echo; ece } ->
          (* Acks from a dropped (or unknown) address are ignored. *)
          let i = active_slot t rcvr in
          if i >= 0 then on_ack t t.rcvrs.(i) ~cum_ack ~blocks ~echo ~ece
      | _ -> ());
  let stagger = Sim.Rng.float t.rng 0.1 in
  t.start_event <-
    Some
      (Sim.Scheduler.schedule_at (Net.Network.scheduler net) (start +. stagger)
         (fun () ->
           t.start_event <- None;
           try_send t));
  t

(* --- checkpoint/restore -------------------------------------------- *)

type coverage_state = Rla.Sender.coverage_state = {
  c_seq : int;
  c_covered : int;
  c_rexmitted : bool;
  c_sent_at : float;
}

type state = Rla.Sender.state = {
  s_rcvrs : Rcv_state.state list;  (* slot order *)
  s_n_active : int;
  s_endpoints : Receiver.state list;  (* endpoint list order *)
  s_rng : int64;
  s_rto : Tcp.Rto.state;
  s_cwnd : float;
  s_ssthresh : float;
  s_awnd : Stats.Ewma.state;
  s_last_window_cut : float;
  s_next_seq : int;
  s_mra : int;
  s_coverage : coverage_state list;  (* ascending seq *)
  s_pending : int list;  (* ascending *)
  s_rexmit_queue : (int * rexmit_target) list;  (* queue order *)
  s_queued : int list;  (* ascending *)
  s_timer : Sim.Scheduler.event_id option;
  s_start_event : Sim.Scheduler.event_id option;
  s_num_trouble : int;
  s_window_cuts : int;
  s_forced_cuts : int;
  s_timeouts : int;
  s_signals : int;
  s_rexmits_multicast : int;
  s_rexmits_unicast : int;
  s_sent_new : int;
  s_cwnd_avg : Stats.Time_avg.state;
  s_rtt : Stats.Welford.state;
  s_rtt_acks : Stats.Welford.state;
  s_meas_time : float;
  s_meas_mra : int;
  s_meas_signals : int;
  s_meas_cuts : int;
  s_meas_forced : int;
  s_meas_timeouts : int;
  s_meas_rexmits : int;
  s_meas_sent_new : int;
  s_meas_signals_per : int list;  (* slot order *)
}

let capture t =
  {
    s_rcvrs = Array.to_list (Array.map Rcv_state.capture t.rcvrs);
    s_n_active = t.n_active;
    s_endpoints = List.map Receiver.capture t.endpoints;
    s_rng = Sim.Rng.state t.rng;
    s_rto = Tcp.Rto.capture t.rto;
    s_cwnd = t.cwnd;
    s_ssthresh = t.ssthresh;
    s_awnd = Stats.Ewma.capture t.awnd;
    s_last_window_cut = t.last_window_cut;
    s_next_seq = t.next_seq;
    s_mra = t.mra;
    s_coverage =
      Hashtbl.fold
        (fun seq (c : coverage) acc ->
          {
            c_seq = seq;
            c_covered = c.covered;
            c_rexmitted = c.rexmitted;
            c_sent_at = c.sent_at;
          }
          :: acc)
        t.coverage []
      |> List.sort (fun a b -> Int.compare a.c_seq b.c_seq);
    s_pending =
      Hashtbl.fold (fun seq () acc -> seq :: acc) t.pending []
      |> List.sort Int.compare;
    s_rexmit_queue = t.rexmit_queue;
    s_queued =
      Hashtbl.fold (fun seq () acc -> seq :: acc) t.queued []
      |> List.sort Int.compare;
    s_timer = (if t.timer < 0 then None else Some t.timer);
    s_start_event = t.start_event;
    s_num_trouble = t.num_trouble;
    s_window_cuts = t.window_cuts;
    s_forced_cuts = t.forced_cuts;
    s_timeouts = t.timeouts;
    s_signals = t.signals;
    s_rexmits_multicast = t.rexmits_multicast;
    s_rexmits_unicast = t.rexmits_unicast;
    s_sent_new = t.sent_new;
    s_cwnd_avg = Stats.Time_avg.capture t.cwnd_avg;
    s_rtt = Stats.Welford.capture !(t.rtt);
    s_rtt_acks = Stats.Welford.capture !(t.rtt_acks);
    s_meas_time = t.meas_time;
    s_meas_mra = t.meas_mra;
    s_meas_signals = t.meas_signals;
    s_meas_cuts = t.meas_cuts;
    s_meas_forced = t.meas_forced;
    s_meas_timeouts = t.meas_timeouts;
    s_meas_rexmits = t.meas_rexmits;
    s_meas_sent_new = t.meas_sent_new;
    s_meas_signals_per = Array.to_list t.meas_signals_per;
  }

let restore t st =
  if List.length st.s_rcvrs <> Array.length t.rcvrs then
    invalid_arg
      (Printf.sprintf "Sender.restore: %d receiver slots captured, %d present"
         (List.length st.s_rcvrs) (Array.length t.rcvrs));
  if List.length st.s_endpoints <> List.length t.endpoints then
    invalid_arg
      (Printf.sprintf "Sender.restore: %d endpoints captured, %d present"
         (List.length st.s_endpoints)
         (List.length t.endpoints));
  List.iteri (fun i s -> Rcv_state.restore t.rcvrs.(i) s) st.s_rcvrs;
  t.n_active <- st.s_n_active;
  List.iter2 Receiver.restore t.endpoints st.s_endpoints;
  Sim.Rng.set_state t.rng st.s_rng;
  Tcp.Rto.restore t.rto st.s_rto;
  t.cwnd <- st.s_cwnd;
  t.ssthresh <- st.s_ssthresh;
  Stats.Ewma.restore t.awnd st.s_awnd;
  t.last_window_cut <- st.s_last_window_cut;
  t.next_seq <- st.s_next_seq;
  t.mra <- st.s_mra;
  Hashtbl.reset t.coverage;
  List.iter
    (fun c ->
      Hashtbl.replace t.coverage c.c_seq
        { covered = c.c_covered; rexmitted = c.c_rexmitted; sent_at = c.c_sent_at })
    st.s_coverage;
  Hashtbl.reset t.pending;
  List.iter (fun seq -> Hashtbl.replace t.pending seq ()) st.s_pending;
  t.rexmit_queue <- st.s_rexmit_queue;
  Hashtbl.reset t.queued;
  List.iter (fun seq -> Hashtbl.replace t.queued seq ()) st.s_queued;
  t.timer <- Option.value st.s_timer ~default:(-1);
  t.start_event <- st.s_start_event;
  let sched = Net.Network.scheduler t.net in
  (match st.s_timer with
  | None -> ()
  | Some id -> Sim.Scheduler.rearm sched ~id t.timeout_thunk);
  (match st.s_start_event with
  | None -> ()
  | Some id ->
      Sim.Scheduler.rearm sched ~id (fun () ->
          t.start_event <- None;
          try_send t));
  t.num_trouble <- st.s_num_trouble;
  t.window_cuts <- st.s_window_cuts;
  t.forced_cuts <- st.s_forced_cuts;
  t.timeouts <- st.s_timeouts;
  t.signals <- st.s_signals;
  t.rexmits_multicast <- st.s_rexmits_multicast;
  t.rexmits_unicast <- st.s_rexmits_unicast;
  t.sent_new <- st.s_sent_new;
  Stats.Time_avg.restore t.cwnd_avg st.s_cwnd_avg;
  Stats.Welford.restore !(t.rtt) st.s_rtt;
  Stats.Welford.restore !(t.rtt_acks) st.s_rtt_acks;
  t.meas_time <- st.s_meas_time;
  t.meas_mra <- st.s_meas_mra;
  t.meas_signals <- st.s_meas_signals;
  t.meas_cuts <- st.s_meas_cuts;
  t.meas_forced <- st.s_meas_forced;
  t.meas_timeouts <- st.s_meas_timeouts;
  t.meas_rexmits <- st.s_meas_rexmits;
  t.meas_sent_new <- st.s_meas_sent_new;
  t.meas_signals_per <- Array.of_list st.s_meas_signals_per;
  (* The cached aggregates and the address index are derived state:
     rebuild them from the restored slots. *)
  rebuild_index t;
  recompute_min_ack t;
  recompute_pipes t

end
