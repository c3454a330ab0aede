type rexmit_target = To_group | To_receivers of Net.Packet.addr list

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

(* What every receiver shares per packet lives once, in the send ring:
   for each seq in [mra, next_seq) its send time, how many active
   receivers have it, and whether it was retransmitted, is pending a
   retransmission decision or is queued.  The ring is power-of-two
   arrays indexed by [seq land (cap - 1)]; a slot is zeroed as the
   frontier passes it.  Receivers keep only their own marks, so sending
   a packet touches none of them.  The window checks read the least
   cumulative ack and the least [accounted] (the largest pipe is
   [next_seq] minus it) off two count rings of the same capacity.

   The ack path allocates nothing of its own beyond the boxed floats it
   hands to other modules: the scoreboards report the sequence numbers
   an ack touched through [touch] (allocated once) into the reusable
   [touched] buffer, and the timer is an event id with [-1] for none.

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
  (* the send ring *)
  mutable sent_at : float array;
  mutable covered : int array;  (* active receivers that have the seq *)
  mutable bits : Bytes.t;  (* b_rexmitted, b_pending, b_queued *)
  mutable n_pending : int;  (* lost somewhere, decision not made *)
  rexmit_queue : (int * rexmit_target) Queue.t;
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
  (* Derived aggregates over the active receivers, never captured:
     counts per value, rings of the send ring's capacity. *)
  mutable high_acks : int array;
  mutable mla : int;  (* least active high_ack *)
  mutable accounts : int array;
  mutable min_accounted : int;  (* next_seq - the largest pipe *)
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

let b_rexmitted = 0b001 and b_pending = 0b010 and b_queued = 0b100

let mask t = Array.length t.covered - 1

let bits t seq = Char.code (Bytes.unsafe_get t.bits (seq land mask t))

let set_bits t seq b = Bytes.unsafe_set t.bits (seq land mask t) (Char.unsafe_chr b)

let in_ring t seq = seq >= t.mra && seq < t.next_seq

(* Clear [seq]'s pending bit; was it set? *)
let take_pending t seq =
  let b = bits t seq in
  b land b_pending <> 0
  && begin
       set_bits t seq (b land lnot b_pending);
       t.n_pending <- t.n_pending - 1;
       true
     end

(* Move one member of the count ring [c] from [before] to [after] and
   return its least member, [lo] before the move.  Adding first keeps
   the ring non-empty, so the upward scan stops. *)
let bag_move c lo ~before ~after =
  if after = before then lo
  else begin
    let m = Array.length c - 1 in
    c.(after land m) <- c.(after land m) + 1;
    c.(before land m) <- c.(before land m) - 1;
    if after < lo then after
    else if before = lo && c.(lo land m) = 0 then begin
      let v = ref (lo + 1) in
      while c.(!v land m) = 0 do
        incr v
      done;
      !v
    end
    else lo
  end

(* Every value the rings hold lies in [min mla mra, next_seq]: double
   the capacity until that span fits. *)
let fit t =
  let lo = Stdlib.min t.mla t.mra in
  let old_cap = Array.length t.covered in
  if t.next_seq - lo >= old_cap then begin
    let cap = ref old_cap in
    while t.next_seq - lo >= !cap do
      cap := 2 * !cap
    done;
    let m = !cap - 1 and om = old_cap - 1 in
    let sent_at = Array.make !cap 0.0 and covered = Array.make !cap 0 in
    let b = Bytes.make !cap '\000' in
    for seq = t.mra to t.next_seq - 1 do
      sent_at.(seq land m) <- t.sent_at.(seq land om);
      covered.(seq land m) <- t.covered.(seq land om);
      Bytes.set b (seq land m) (Bytes.get t.bits (seq land om))
    done;
    let regrow c =
      let c' = Array.make !cap 0 in
      for v = lo to lo + old_cap - 1 do
        c'.(v land m) <- c.(v land om)
      done;
      c'
    in
    t.high_acks <- regrow t.high_acks;
    t.accounts <- regrow t.accounts;
    t.sent_at <- sent_at;
    t.covered <- covered;
    t.bits <- b
  end

(* Rebuilt from scratch on creation, restore, membership changes and
   timeouts; every other change moves one receiver ([bag_move]). *)
let recompute_bags t =
  let least f = fold_active t (fun acc r -> Stdlib.min acc (f (Rcv_state.board r))) max_int in
  t.mla <- least Tcp.Scoreboard.high_ack;
  t.min_accounted <- least Tcp.Scoreboard.accounted;
  fit t;
  Array.fill t.high_acks 0 (Array.length t.high_acks) 0;
  Array.fill t.accounts 0 (Array.length t.accounts) 0;
  let add c v = c.(v land mask t) <- c.(v land mask t) + 1 in
  Array.iter
    (fun r ->
      if Rcv_state.active r then begin
        add t.high_acks (Tcp.Scoreboard.high_ack (Rcv_state.board r));
        add t.accounts (Tcp.Scoreboard.accounted (Rcv_state.board r))
      end)
    t.rcvrs

let note_accounted t ~before board =
  t.min_accounted <-
    bag_move t.accounts t.min_accounted ~before ~after:(Tcp.Scoreboard.accounted board)

let min_last_ack t = t.mla

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

(* The per-signal folds over the active receivers are typed loops; the
   clamps are [Stdlib.min]'s and [Stdlib.max]'s definitions on floats
   ([if a <= b then a else b], [if a >= b then a else b]). *)
let min_signal_interval t =
  let now = now t and least = ref infinity in
  for i = 0 to Array.length t.rcvrs - 1 do
    let r = t.rcvrs.(i) in
    if Rcv_state.active r then begin
      let v = Rcv_state.mean_signal_interval r ~now in
      least := if !least <= v then !least else v
    end
  done;
  !least

(* Sets [num_trouble] and returns the largest srtt, in one pass. *)
let count_troubled t ~min_interval =
  let now = now t and eta = t.params.Params.eta in
  let count = ref 0 and top = ref 0.0 in
  for i = 0 to Array.length t.rcvrs - 1 do
    let r = t.rcvrs.(i) in
    if Rcv_state.active r then begin
      if Rcv_state.is_troubled r ~now ~min_interval ~eta then incr count;
      let srtt = Rcv_state.srtt r in
      top := if !top >= srtt then !top else srtt
    end
  done;
  t.num_trouble <- Int.max 1 !count;
  !top

let recount_troubled t =
  match t.params.Params.trouble_counting with
  | Params.All_receivers -> t.num_trouble <- Int.max 1 t.n_active
  | Params.Dynamic ->
      ignore (count_troubled t ~min_interval:(min_signal_interval t) : float)

let max_srtt t =
  let top = ref 0.0 in
  for i = 0 to Array.length t.rcvrs - 1 do
    let r = t.rcvrs.(i) in
    if Rcv_state.active r then begin
      let srtt = Rcv_state.srtt r in
      top := if !top >= srtt then !top else srtt
    end
  done;
  !top

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
      (not (Rcv_state.active r)) || Tcp.Scoreboard.reported (Rcv_state.board r) seq)
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

(* Mark the retransmission only on a receiver that still considers the
   packet lost (acks may have arrived since the decision). *)
let mark_rexmit t r seq =
  let board = Rcv_state.board r in
  if Rcv_state.active r && Tcp.Scoreboard.needs_rexmit board seq then begin
    let before = Tcp.Scoreboard.accounted board in
    Tcp.Scoreboard.mark_retransmitted ~at:(now t) board seq;
    note_accounted t ~before board
  end

let send_rexmit t seq target =
  if in_ring t seq then
    set_bits t seq (bits t seq land lnot b_queued lor b_rexmitted);
  match target with
  | To_group ->
      for i = 0 to Array.length t.rcvrs - 1 do
        mark_rexmit t t.rcvrs.(i) seq
      done;
      t.rexmits_multicast <- t.rexmits_multicast + 1;
      send_packet t ~seq ~dst:t.group_dest ~rexmit:true
  | To_receivers addrs ->
      (* Unicast only to requesters that are still active members: a
         receiver dropped between the decision and this send must not
         keep drawing retransmissions (or inflating the unicast
         counter). *)
      List.iter
        (fun a ->
          let i = active_slot t a in
          if i >= 0 then begin
            mark_rexmit t t.rcvrs.(i) seq;
            t.rexmits_unicast <- t.rexmits_unicast + 1;
            send_packet t ~seq ~dst:(Net.Packet.Unicast a) ~rexmit:true
          end)
        addrs

(* The slowest active branch limits the send rate: the largest pipe is
   [next_seq - min_accounted]. *)
let window_room t =
  t.next_seq - t.min_accounted < int_of_float t.cwnd
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

(* A new packet touches only the send ring: every receiver's pipe grows
   with [next_seq] by itself. *)
and try_send t =
  let budget = ref t.params.Params.max_burst in
  while !budget > 0 && window_room t do
    if not (Queue.is_empty t.rexmit_queue) then begin
      let seq, target = Queue.pop t.rexmit_queue in
      send_rexmit t seq target;
      decr budget
    end
    else begin
      let seq = t.next_seq in
      t.next_seq <- seq + 1;
      fit t;
      t.sent_at.(seq land mask t) <- now t;
      t.sent_new <- t.sent_new + 1;
      send_packet t ~seq ~dst:t.group_dest ~rexmit:false;
      decr budget
    end
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
      (fun r ->
        ignore (Tcp.Scoreboard.mark_all_lost (Rcv_state.board r) ~next_seq:t.next_seq : int))
      t.rcvrs;
    recompute_bags t;
    Queue.clear t.rexmit_queue;
    t.n_pending <- 0;
    for seq = t.mra to t.next_seq - 1 do
      set_bits t seq (bits t seq land b_rexmitted);
      schedule_rexmit_decision t seq
    done
  end;
  try_send t

(* Decide (or defer) how to retransmit [seq].  The paper's rule: wait
   until every receiver has reported on the packet, then multicast if
   more than [rexmit_thresh] receivers request it, unicast otherwise.
   A packet behind the frontier has no requester left. *)
and schedule_rexmit_decision t seq =
  let b = if in_ring t seq then bits t seq else b_queued in
  if b land b_queued = 0 then begin
    if not (reported_from t seq 0) then begin
      if b land b_pending = 0 then t.n_pending <- t.n_pending + 1;
      set_bits t seq (b lor b_pending)
    end
    else begin
      ignore (take_pending t seq : bool);
      let lost r = Tcp.Scoreboard.is_lost (Rcv_state.board r) seq in
      let requesting = fold_active t (fun n r -> if lost r then n + 1 else n) 0 in
      if requesting > 0 then begin
        let target =
          if requesting > t.params.Params.rexmit_thresh then To_group
          else
            To_receivers
              (fold_active t (fun acc r -> if lost r then Rcv_state.addr r :: acc else acc) [])
        in
        Queue.push (seq, target) t.rexmit_queue;
        set_bits t seq (bits t seq lor b_queued)
      end
    end
  end

(* --- acknowledgment processing ------------------------------------- *)

let advance_frontier t =
  let start = t.mra in
  while t.mra < t.next_seq && t.covered.(t.mra land mask t) >= t.n_active do
    let seq = t.mra in
    if bits t seq land b_rexmitted = 0 then
      Stats.Welford.add !(t.rtt) (now t -. t.sent_at.(seq land mask t));
    (* A pending decision for a packet everyone now has is moot. *)
    ignore (take_pending t seq : bool);
    set_bits t seq 0;
    t.covered.(seq land mask t) <- 0;
    t.mra <- seq + 1
  done;
  if t.mra > start then restart_timer t

(* A packet newly covered by one receiver; on full coverage the window
   opens (rule 4: cwnd <- cwnd + 1/cwnd once ACKed by all). *)
let cover t seq =
  if in_ring t seq then begin
    let i = seq land mask t in
    t.covered.(i) <- t.covered.(i) + 1;
    if t.covered.(i) >= t.n_active then begin
      if t.cwnd < t.ssthresh then set_cwnd t (t.cwnd +. 1.0)
      else set_cwnd t (t.cwnd +. (1.0 /. t.cwnd))
    end
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
        (Tcp.Scoreboard.sack board ~next_seq:t.next_seq ~lo:block_lo ~hi:block_hi
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

(* The rate-based cut of a receiver that acts on its signal;
   [session_srtt] is [max_srtt t]. *)
let cut_on_signal t r ~session_srtt =
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

(* The O(n) aggregates (signal-interval minimum, then the troubled count
   and session srtt together) are two passes per signal, shared by every
   rule that reads them. *)
let congestion_action t r =
  match t.params.Params.trouble_counting with
  | Params.All_receivers ->
      recount_troubled t;
      cut_on_signal t r ~session_srtt:(max_srtt t)
  | Params.Dynamic ->
      let min_interval = min_signal_interval t in
      let session_srtt = count_troubled t ~min_interval in
      if
        Rcv_state.is_troubled r ~now:(now t) ~min_interval
          ~eta:t.params.Params.eta
      then cut_on_signal t r ~session_srtt

(* Under [Sim.Invariant.enabled], after every ack: the address index,
   the acknowledging receiver's counts against its marks, and every
   incremental aggregate against a fold from scratch.  Coverage is
   folded as a difference count over [mra, next_seq), so the check
   costs O(receivers + window), not their product. *)
let check_ack_invariants t r =
  let require = Sim.Invariant.require in
  Array.iteri
    (fun i r ->
      require
        (slot_of_addr t (Rcv_state.addr r) = i)
        (fun () ->
          Printf.sprintf "Sender: slot %d (address %d) indexed as slot %d" i
            (Rcv_state.addr r)
            (slot_of_addr t (Rcv_state.addr r))))
    t.rcvrs;
  let indexed =
    Array.fold_left (fun acc i -> if i >= 0 then acc + 1 else acc) 0 t.slot_of
  in
  require
    (indexed = Array.length t.rcvrs
    && fold_active t (fun acc _ -> acc + 1) 0 = t.n_active)
    (fun () ->
      Printf.sprintf "Sender: %d addresses indexed for %d slots (%d active)"
        indexed (Array.length t.rcvrs) t.n_active);
  require
    (Tcp.Scoreboard.counts_agree (Rcv_state.board r) ~next_seq:t.next_seq)
    (fun () -> Printf.sprintf "Sender: receiver %d's counts" (Rcv_state.addr r));
  (* [ends.(k)]: receivers whose cumulative ack stops at [mra + k];
     their SACKs go straight into [sacks]. *)
  let window = t.next_seq - t.mra in
  let ends = Array.make (window + 1) 0 and sacks = Array.make (window + 1) 0 in
  let mla = ref max_int and min_accounted = ref max_int in
  Array.iter
    (fun r ->
      let b = Rcv_state.board r in
      if Rcv_state.active r then begin
        mla := Stdlib.min !mla (Tcp.Scoreboard.high_ack b);
        min_accounted := Stdlib.min !min_accounted (Tcp.Scoreboard.accounted b);
        let k = Stdlib.min window (Tcp.Scoreboard.high_ack b - t.mra) in
        if k > 0 then ends.(k) <- ends.(k) + 1;
        Tcp.Scoreboard.iter_sacked b (fun seq ->
            if in_ring t seq then sacks.(seq - t.mra) <- sacks.(seq - t.mra) + 1)
      end)
    t.rcvrs;
  require
    (t.mla = !mla && t.min_accounted = !min_accounted)
    (fun () ->
      Printf.sprintf "Sender: least high_ack %d / accounted %d, folds give %d / %d"
        t.mla t.min_accounted !mla !min_accounted);
  let acked = ref 0 and pending = ref 0 in
  for k = window - 1 downto 0 do
    let seq = t.mra + k in
    let b = bits t seq in
    acked := !acked + ends.(k + 1);
    require
      (t.covered.(seq land mask t) = !acked + sacks.(k)
      && b land b_queued <> 0
         = Queue.fold (fun q (s, _) -> q || s = seq) false t.rexmit_queue
      && (b land b_pending = 0 || not (reported_from t seq 0)))
      (fun () -> Printf.sprintf "Sender: seq %d's coverage or bits" seq);
    if b land b_pending <> 0 then incr pending
  done;
  require (!pending = t.n_pending) (fun () ->
      Printf.sprintf "Sender: %d pending bits, count says %d" !pending t.n_pending)

(* [touched] collects, in order, the packets this ack newly
   acknowledged, newly SACKed, newly found lost and revived; each rule
   below reads its own stretch of it. *)
let on_ack t r ~cum_ack ~blocks ~echo ~ece =
  Rcv_state.count_ack r;
  record_rtt t r (now t -. echo);
  let board = Rcv_state.board r in
  let high_ack0 = Tcp.Scoreboard.high_ack board
  and accounted0 = Tcp.Scoreboard.accounted board in
  t.n_touched <- 0;
  ignore (Tcp.Scoreboard.advance_cum board ~next_seq:t.next_seq cum_ack t.touch : int);
  sack_blocks t board blocks;
  let covered = t.n_touched in
  for i = 0 to covered - 1 do
    cover t t.touched.(i)
  done;
  advance_frontier t;
  (* Update the moving average of the window on every ack. *)
  Stats.Ewma.update t.awnd t.cwnd;
  ignore
    (Tcp.Scoreboard.detect_losses board ~next_seq:t.next_seq
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
    Tcp.Scoreboard.expire_rexmits board ~next_seq:t.next_seq
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
  if t.n_pending > 0 then begin
    sort_touched t;
    for i = 0 to t.n_touched - 1 do
      let seq = t.touched.(i) in
      if (i = 0 || t.touched.(i - 1) <> seq) && in_ring t seq && take_pending t seq
      then schedule_rexmit_decision t seq
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
  (* All of this ack's changes to [r] are done; bring the cached
     aggregates back in sync before [try_send] reads them. *)
  t.mla <- bag_move t.high_acks t.mla ~before:high_ack0 ~after:(Tcp.Scoreboard.high_ack board);
  note_accounted t ~before:accounted0 board;
  probe_flow t;
  try_send t;
  if !Sim.Invariant.enabled then check_ack_invariants t r

(* Stop listening to one receiver — the slow-receiver option of
   section 4.3.  Outstanding packets stop counting the dropped
   receiver's coverage, so the acked-by-all frontier can move past its
   holes. *)
let drop_receiver t addr =
  match active_slot t addr with
  | -1 -> false
  | i ->
      let victim = t.rcvrs.(i) in
      if t.n_active <= 1 then
        invalid_arg "Sender.drop_receiver: cannot drop the last receiver";
      Rcv_state.deactivate victim;
      t.n_active <- t.n_active - 1;
      for seq = t.mra to t.next_seq - 1 do
        if Tcp.Scoreboard.covers (Rcv_state.board victim) seq then
          t.covered.(seq land mask t) <- t.covered.(seq land mask t) - 1
      done;
      advance_frontier t;
      recount_troubled t;
      (* Retransmission decisions that were waiting on the victim may
         now be ready. *)
      for seq = t.mra to t.next_seq - 1 do
        if take_pending t seq then schedule_rexmit_decision t seq
      done;
      recompute_bags t;
      try_send t;
      true

(* Runtime join — the membership counterpart of [drop_receiver].  The
   newcomer is only responsible for packets from the current sequence
   frontier on: its endpoint acknowledges from [next_seq] and its
   marks start there, so it neither stalls on — nor gates — packets
   sent before it joined.  Re-joining an address that was dropped
   earlier reuses its slot with fresh state (fresh marks, srtt, signal
   history). *)
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
      (* Outstanding packets predate the join; the newcomer counts them
         delivered (seq < its high_ack), so their coverage counts grow
         by one to keep the [covered >= n_active] frontier/window rules
         consistent. *)
      for seq = t.mra to t.next_seq - 1 do
        t.covered.(seq land mask t) <- t.covered.(seq land mask t) + 1
      done;
      recount_troubled t;
      recompute_bags t;
      try_send t;
      true

let active_receivers t =
  fold_active t (fun acc r -> Rcv_state.addr r :: acc) [] |> List.rev

(* --- lifecycle ------------------------------------------------------ *)

type snapshot = {
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

let initial_cap = 64

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
      sent_at = Array.make initial_cap 0.0;
      covered = Array.make initial_cap 0;
      bits = Bytes.make initial_cap '\000';
      n_pending = 0;
      rexmit_queue = Queue.create ();
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
      high_acks = Array.make initial_cap 0;
      mla = 0;
      accounts = Array.make initial_cap 0;
      min_accounted = 0;
      slot_of = [||];
      taps = None;
    }
  in
  rebuild_index t;
  recompute_bags t;
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

type coverage_state = {
  c_seq : int;
  c_covered : int;
  c_rexmitted : bool;
  c_sent_at : float;
}

type state = {
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
    s_rcvrs =
      Array.to_list (Array.map (Rcv_state.capture ~next_seq:t.next_seq) t.rcvrs);
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
      List.init (t.next_seq - t.mra) (fun k ->
          let seq = t.mra + k in
          {
            c_seq = seq;
            c_covered = t.covered.(seq land mask t);
            c_rexmitted = bits t seq land b_rexmitted <> 0;
            c_sent_at = t.sent_at.(seq land mask t);
          });
    s_pending =
      List.filter
        (fun seq -> bits t seq land b_pending <> 0)
        (List.init (t.next_seq - t.mra) (fun k -> t.mra + k));
    s_rexmit_queue = List.of_seq (Queue.to_seq t.rexmit_queue);
    s_queued =
      List.sort Int.compare (List.of_seq (Seq.map fst (Queue.to_seq t.rexmit_queue)));
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
  (* [fit] sizes the rings for the restored window; the bags are
     rebuilt below, and the queued bits follow the queue. *)
  Bytes.fill t.bits 0 (Bytes.length t.bits) '\000';
  t.mla <- t.mra;
  fit t;
  List.iter
    (fun c ->
      t.covered.(c.c_seq land mask t) <- c.c_covered;
      t.sent_at.(c.c_seq land mask t) <- c.c_sent_at;
      if c.c_rexmitted then set_bits t c.c_seq b_rexmitted)
    st.s_coverage;
  List.iter (fun seq -> set_bits t seq (bits t seq lor b_pending)) st.s_pending;
  t.n_pending <- List.length st.s_pending;
  Queue.clear t.rexmit_queue;
  List.iter
    (fun ((seq, _) as e) ->
      Queue.push e t.rexmit_queue;
      if in_ring t seq then set_bits t seq (bits t seq lor b_queued))
    st.s_rexmit_queue;
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
  recompute_bags t

module For_testing = struct
  let active_slot = active_slot
  let num_trouble_rcvr = num_trouble_rcvr
  let pthresh_for = pthresh_for
  let min_last_ack = min_last_ack
  let receiver_endpoints = receiver_endpoints
end
