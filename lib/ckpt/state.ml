(* Each record codec aliases its record's module and every getter names
   it: OCaml types the operands of a [let+ ... and+ ...] chain out of
   source order, so a bare label would not always find its type. *)
open Codec.Syntax

(* --- stats ---------------------------------------------------------- *)

let ewma =
  let module E = Stats.Ewma in
  Codec.record
    (let+ s_avg = Codec.field Codec.f64 (fun s -> s.E.s_avg)
     and+ s_samples = Codec.field Codec.int (fun s -> s.E.s_samples) in
     { E.s_avg; s_samples })

let welford =
  let module W = Stats.Welford in
  Codec.record
    (let+ s_n = Codec.field Codec.int (fun s -> s.W.s_n)
     and+ s_mean = Codec.field Codec.f64 (fun s -> s.W.s_mean)
     and+ s_m2 = Codec.field Codec.f64 (fun s -> s.W.s_m2)
     and+ s_min = Codec.field Codec.f64 (fun s -> s.W.s_min)
     and+ s_max = Codec.field Codec.f64 (fun s -> s.W.s_max) in
     { W.s_n; s_mean; s_m2; s_min; s_max })

let time_avg =
  let module T = Stats.Time_avg in
  Codec.record
    (let+ s_start = Codec.field Codec.f64 (fun s -> s.T.s_start)
     and+ s_last_time = Codec.field Codec.f64 (fun s -> s.T.s_last_time)
     and+ s_last_value = Codec.field Codec.f64 (fun s -> s.T.s_last_value)
     and+ s_weighted_sum = Codec.field Codec.f64 (fun s -> s.T.s_weighted_sum) in
     { T.s_start; s_last_time; s_last_value; s_weighted_sum })

(* --- scheduler ------------------------------------------------------ *)

let scheduler =
  let module S = Sim.Scheduler in
  Codec.record
    (let+ s_clock = Codec.field Codec.f64 (fun s -> s.S.s_clock)
     and+ s_next_id = Codec.field Codec.int (fun s -> s.S.s_next_id)
     and+ s_fired = Codec.field Codec.int (fun s -> s.S.s_fired)
     and+ s_pending =
       Codec.field
         (Codec.list (Codec.pair Codec.int Codec.f64))
         (fun s -> s.S.s_pending)
     in
     { S.s_clock; s_next_id; s_fired; s_pending })

(* --- packets -------------------------------------------------------- *)

let dest =
  Codec.variant "dest"
    [
      Codec.case 0 Codec.int
        (fun a -> Net.Packet.Unicast a)
        (function Net.Packet.Unicast a -> Some a | _ -> None);
      Codec.case 1 Codec.int
        (fun g -> Net.Packet.Multicast g)
        (function Net.Packet.Multicast g -> Some g | _ -> None);
    ]

let sack_block =
  let module W = Tcp.Wire in
  Codec.record
    (let+ block_lo = Codec.field Codec.int (fun b -> b.W.block_lo)
     and+ block_hi = Codec.field Codec.int (fun b -> b.W.block_hi) in
     { W.block_lo; block_hi })

(* Constructors with several fields carry them as right-nested pairs. *)
let payload =
  let open Codec in
  let blocks = list sack_block in
  variant "payload"
    [
      const 0 Net.Packet.Raw;
      case 1 (pair int f64)
        (fun (seq, sent_at) -> Tcp.Wire.Tcp_data { seq; sent_at })
        (function
          | Tcp.Wire.Tcp_data { seq; sent_at } -> Some (seq, sent_at)
          | _ -> None);
      case 2
        (pair int (pair blocks (pair f64 (pair bool int))))
        (fun (cum_ack, (blocks, (echo, (ece, rwnd)))) ->
          Tcp.Wire.Tcp_ack { cum_ack; blocks; echo; ece; rwnd })
        (function
          | Tcp.Wire.Tcp_ack { cum_ack; blocks; echo; ece; rwnd } ->
              Some (cum_ack, (blocks, (echo, (ece, rwnd))))
          | _ -> None);
      case 3
        (pair int (pair f64 bool))
        (fun (seq, (sent_at, rexmit)) ->
          Rla.Wire.Rla_data { seq; sent_at; rexmit })
        (function
          | Rla.Wire.Rla_data { seq; sent_at; rexmit } ->
              Some (seq, (sent_at, rexmit))
          | _ -> None);
      case 4
        (pair int (pair int (pair blocks (pair f64 bool))))
        (fun (rcvr, (cum_ack, (blocks, (echo, ece)))) ->
          Rla.Wire.Rla_ack { rcvr; cum_ack; blocks; echo; ece })
        (function
          | Rla.Wire.Rla_ack { rcvr; cum_ack; blocks; echo; ece } ->
              Some (rcvr, (cum_ack, (blocks, (echo, ece))))
          | _ -> None);
      case 5 (pair int f64)
        (fun (options, sent_at) -> Tcp.Wire.Tcp_syn { options; sent_at })
        (function
          | Tcp.Wire.Tcp_syn { options; sent_at } -> Some (options, sent_at)
          | _ -> None);
      case 6
        (pair int (pair int f64))
        (fun (options, (rwnd, sent_at)) ->
          Tcp.Wire.Tcp_syn_ack { options; rwnd; sent_at })
        (function
          | Tcp.Wire.Tcp_syn_ack { options; rwnd; sent_at } ->
              Some (options, (rwnd, sent_at))
          | _ -> None);
      case 7 int
        (fun seq -> Tcp.Wire.Tcp_rst { seq })
        (function Tcp.Wire.Tcp_rst { seq } -> Some seq | _ -> None);
      case 8 (pair int f64)
        (fun (seq, sent_at) -> Tcp.Wire.Tcp_probe { seq; sent_at })
        (function
          | Tcp.Wire.Tcp_probe { seq; sent_at } -> Some (seq, sent_at)
          | _ -> None);
    ]

(* [refs] is not serialized: a deserialized packet is a private copy with
   exactly one owner (the link state it is restored into). *)
let packet =
  let module P = Net.Packet in
  Codec.record
    (let+ uid = Codec.field Codec.int (fun p -> p.P.uid)
     and+ flow = Codec.field Codec.int (fun p -> p.P.flow)
     and+ src = Codec.field Codec.int (fun p -> p.P.src)
     and+ dst = Codec.field dest (fun p -> p.P.dst)
     and+ size = Codec.field Codec.int (fun p -> p.P.size)
     and+ payload = Codec.field payload (fun p -> p.P.payload)
     and+ born = Codec.field Codec.f64 (fun p -> p.P.born)
     and+ ecn = Codec.field Codec.bool (fun p -> p.P.ecn) in
     { P.uid; flow; src; dst; size; payload; born; ecn; refs = 1 })

(* --- links / network ------------------------------------------------ *)

let red =
  let module R = Net.Red in
  Codec.record
    (let+ s_avg = Codec.field Codec.f64 (fun s -> s.R.s_avg)
     and+ s_count = Codec.field Codec.int (fun s -> s.R.s_count)
     and+ s_q_time = Codec.field Codec.f64 (fun s -> s.R.s_q_time)
     and+ s_idle = Codec.field Codec.bool (fun s -> s.R.s_idle)
     and+ s_drops = Codec.field Codec.int (fun s -> s.R.s_drops)
     and+ s_marks = Codec.field Codec.int (fun s -> s.R.s_marks) in
     { R.s_avg; s_count; s_q_time; s_idle; s_drops; s_marks })

let disc =
  Codec.variant "queue-disc"
    [
      Codec.const 0 Net.Queue_disc.Stateless;
      Codec.case 1 red
        (fun s -> Net.Queue_disc.Red s)
        (function Net.Queue_disc.Red s -> Some s | _ -> None);
    ]

let link =
  let module L = Net.Link in
  Codec.record
    (let+ s_bandwidth_bps = Codec.field Codec.f64 (fun s -> s.L.s_bandwidth_bps)
     and+ s_prop_delay = Codec.field Codec.f64 (fun s -> s.L.s_prop_delay)
     and+ s_buffer = Codec.field (Codec.list packet) (fun s -> s.L.s_buffer)
     and+ s_busy = Codec.field Codec.bool (fun s -> s.L.s_busy)
     and+ s_in_service =
       Codec.field (Codec.option packet) (fun s -> s.L.s_in_service)
     and+ s_tx_event =
       Codec.field (Codec.option Codec.int) (fun s -> s.L.s_tx_event)
     and+ s_inflight =
       Codec.field
         (Codec.list (Codec.pair Codec.int packet))
         (fun s -> s.L.s_inflight)
     and+ s_up = Codec.field Codec.bool (fun s -> s.L.s_up)
     and+ s_down_since = Codec.field Codec.f64 (fun s -> s.L.s_down_since)
     and+ s_downtime_acc = Codec.field Codec.f64 (fun s -> s.L.s_downtime_acc)
     and+ s_last_delivery = Codec.field Codec.f64 (fun s -> s.L.s_last_delivery)
     and+ s_offered = Codec.field Codec.int (fun s -> s.L.s_offered)
     and+ s_dropped = Codec.field Codec.int (fun s -> s.L.s_dropped)
     and+ s_delivered = Codec.field Codec.int (fun s -> s.L.s_delivered)
     and+ s_bytes_delivered =
       Codec.field Codec.int (fun s -> s.L.s_bytes_delivered)
     and+ s_marked = Codec.field Codec.int (fun s -> s.L.s_marked)
     and+ s_rng = Codec.field Codec.i64 (fun s -> s.L.s_rng)
     and+ s_disc = Codec.field disc (fun s -> s.L.s_disc) in
     {
       L.s_bandwidth_bps;
       s_prop_delay;
       s_buffer;
       s_busy;
       s_in_service;
       s_tx_event;
       s_inflight;
       s_up;
       s_down_since;
       s_downtime_acc;
       s_last_delivery;
       s_offered;
       s_dropped;
       s_delivered;
       s_bytes_delivered;
       s_marked;
       s_rng;
       s_disc;
     })

let network =
  let module N = Net.Network in
  Codec.record
    (let+ s_root_rng = Codec.field Codec.i64 (fun s -> s.N.s_root_rng)
     and+ s_next_flow = Codec.field Codec.int (fun s -> s.N.s_next_flow)
     and+ s_next_group = Codec.field Codec.int (fun s -> s.N.s_next_group)
     and+ s_next_uid = Codec.field Codec.int (fun s -> s.N.s_next_uid)
     and+ s_nodes = Codec.field (Codec.list Codec.int) (fun s -> s.N.s_nodes)
     and+ s_links = Codec.field (Codec.list link) (fun s -> s.N.s_links) in
     { N.s_root_rng; s_next_flow; s_next_group; s_next_uid; s_nodes; s_links })

(* --- tcp ------------------------------------------------------------ *)

let rto =
  let module R = Tcp.Rto in
  Codec.record
    (let+ s_srtt = Codec.field Codec.f64 (fun s -> s.R.s_srtt)
     and+ s_rttvar = Codec.field Codec.f64 (fun s -> s.R.s_rttvar)
     and+ s_shift = Codec.field Codec.int (fun s -> s.R.s_shift)
     and+ s_samples = Codec.field Codec.int (fun s -> s.R.s_samples) in
     { R.s_srtt; s_rttvar; s_shift; s_samples })

let sb_entry =
  let module S = Tcp.Scoreboard in
  Codec.record
    (let+ e_seq = Codec.field Codec.int (fun e -> e.S.e_seq)
     and+ e_sacked = Codec.field Codec.bool (fun e -> e.S.e_sacked)
     and+ e_lost = Codec.field Codec.bool (fun e -> e.S.e_lost)
     and+ e_rexmitted = Codec.field Codec.bool (fun e -> e.S.e_rexmitted)
     and+ e_rexmit_time = Codec.field Codec.f64 (fun e -> e.S.e_rexmit_time) in
     { S.e_seq; e_sacked; e_lost; e_rexmitted; e_rexmit_time })

let scoreboard =
  let module S = Tcp.Scoreboard in
  Codec.record
    (let+ s_entries = Codec.field (Codec.list sb_entry) (fun s -> s.S.s_entries)
     and+ s_high_ack = Codec.field Codec.int (fun s -> s.S.s_high_ack)
     and+ s_next_seq = Codec.field Codec.int (fun s -> s.S.s_next_seq)
     and+ s_highest_sacked = Codec.field Codec.int (fun s -> s.S.s_highest_sacked)
     and+ s_sacked_cnt = Codec.field Codec.int (fun s -> s.S.s_sacked_cnt)
     and+ s_lost_cnt = Codec.field Codec.int (fun s -> s.S.s_lost_cnt)
     and+ s_rexmit_out = Codec.field Codec.int (fun s -> s.S.s_rexmit_out)
     and+ s_loss_floor = Codec.field Codec.int (fun s -> s.S.s_loss_floor) in
     {
       S.s_entries;
       s_high_ack;
       s_next_seq;
       s_highest_sacked;
       s_sacked_cnt;
       s_lost_cnt;
       s_rexmit_out;
       s_loss_floor;
     })

let tcp_receiver =
  let module R = Tcp.Receiver in
  Codec.record
    (let+ s_ooo = Codec.field (Codec.list Codec.int) (fun s -> s.R.s_ooo)
     and+ s_recent = Codec.field (Codec.list Codec.int) (fun s -> s.R.s_recent)
     and+ s_expected = Codec.field Codec.int (fun s -> s.R.s_expected)
     and+ s_received_total = Codec.field Codec.int (fun s -> s.R.s_received_total)
     and+ s_duplicates = Codec.field Codec.int (fun s -> s.R.s_duplicates)
     and+ s_t0 = Codec.field Codec.f64 (fun s -> s.R.s_t0)
     and+ s_wscale = Codec.field Codec.int (fun s -> s.R.s_wscale)
     and+ s_sack_ok = Codec.field Codec.bool (fun s -> s.R.s_sack_ok)
     and+ s_rst_strict = Codec.field Codec.bool (fun s -> s.R.s_rst_strict)
     and+ s_closed = Codec.field Codec.bool (fun s -> s.R.s_closed)
     and+ s_syn_received = Codec.field Codec.bool (fun s -> s.R.s_syn_received)
     and+ s_rst_accepted = Codec.field Codec.int (fun s -> s.R.s_rst_accepted)
     and+ s_rst_challenged = Codec.field Codec.int (fun s -> s.R.s_rst_challenged)
     and+ s_rst_dropped = Codec.field Codec.int (fun s -> s.R.s_rst_dropped)
     and+ s_challenge_acks = Codec.field Codec.int (fun s -> s.R.s_challenge_acks)
     and+ s_ghost_data = Codec.field Codec.int (fun s -> s.R.s_ghost_data)
     and+ s_probes_received =
       Codec.field Codec.int (fun s -> s.R.s_probes_received)
     in
     {
       R.s_ooo;
       s_recent;
       s_expected;
       s_received_total;
       s_duplicates;
       s_t0;
       s_wscale;
       s_sack_ok;
       s_rst_strict;
       s_closed;
       s_syn_received;
       s_rst_accepted;
       s_rst_challenged;
       s_rst_dropped;
       s_challenge_acks;
       s_ghost_data;
       s_probes_received;
     })

let tcp_sender =
  let module S = Tcp.Sender in
  let event = Codec.option Codec.int in
  Codec.record
    (let+ s_sb = Codec.field scoreboard (fun s -> s.S.s_sb)
     and+ s_rto = Codec.field rto (fun s -> s.S.s_rto)
     and+ s_receiver = Codec.field tcp_receiver (fun s -> s.S.s_receiver)
     and+ s_cwnd = Codec.field Codec.f64 (fun s -> s.S.s_cwnd)
     and+ s_ssthresh = Codec.field Codec.f64 (fun s -> s.S.s_ssthresh)
     and+ s_in_recovery = Codec.field Codec.bool (fun s -> s.S.s_in_recovery)
     and+ s_recover_point = Codec.field Codec.int (fun s -> s.S.s_recover_point)
     and+ s_timer = Codec.field event (fun s -> s.S.s_timer)
     and+ s_start_event = Codec.field event (fun s -> s.S.s_start_event)
     and+ s_cwnd_avg = Codec.field time_avg (fun s -> s.S.s_cwnd_avg)
     and+ s_rtt = Codec.field welford (fun s -> s.S.s_rtt)
     and+ s_sent_new = Codec.field Codec.int (fun s -> s.S.s_sent_new)
     and+ s_retransmits = Codec.field Codec.int (fun s -> s.S.s_retransmits)
     and+ s_window_cuts = Codec.field Codec.int (fun s -> s.S.s_window_cuts)
     and+ s_timeouts = Codec.field Codec.int (fun s -> s.S.s_timeouts)
     and+ s_meas_time = Codec.field Codec.f64 (fun s -> s.S.s_meas_time)
     and+ s_meas_delivered = Codec.field Codec.int (fun s -> s.S.s_meas_delivered)
     and+ s_meas_sent_new = Codec.field Codec.int (fun s -> s.S.s_meas_sent_new)
     and+ s_meas_retransmits =
       Codec.field Codec.int (fun s -> s.S.s_meas_retransmits)
     and+ s_meas_window_cuts =
       Codec.field Codec.int (fun s -> s.S.s_meas_window_cuts)
     and+ s_meas_timeouts = Codec.field Codec.int (fun s -> s.S.s_meas_timeouts)
     and+ s_completed_at =
       Codec.field (Codec.option Codec.f64) (fun s -> s.S.s_completed_at)
     and+ s_established = Codec.field Codec.bool (fun s -> s.S.s_established)
     and+ s_syn_sent = Codec.field Codec.int (fun s -> s.S.s_syn_sent)
     and+ s_neg_wscale = Codec.field Codec.int (fun s -> s.S.s_neg_wscale)
     and+ s_rwnd_field = Codec.field Codec.int (fun s -> s.S.s_rwnd_field)
     and+ s_persist_timer = Codec.field event (fun s -> s.S.s_persist_timer)
     and+ s_persist_shift = Codec.field Codec.int (fun s -> s.S.s_persist_shift)
     and+ s_zero_window_probes =
       Codec.field Codec.int (fun s -> s.S.s_zero_window_probes)
     and+ s_ghost_acks = Codec.field Codec.int (fun s -> s.S.s_ghost_acks) in
     {
       S.s_sb;
       s_rto;
       s_receiver;
       s_cwnd;
       s_ssthresh;
       s_in_recovery;
       s_recover_point;
       s_timer;
       s_start_event;
       s_cwnd_avg;
       s_rtt;
       s_sent_new;
       s_retransmits;
       s_window_cuts;
       s_timeouts;
       s_meas_time;
       s_meas_delivered;
       s_meas_sent_new;
       s_meas_retransmits;
       s_meas_window_cuts;
       s_meas_timeouts;
       s_completed_at;
       s_established;
       s_syn_sent;
       s_neg_wscale;
       s_rwnd_field;
       s_persist_timer;
       s_persist_shift;
       s_zero_window_probes;
       s_ghost_acks;
     })

(* --- rla ------------------------------------------------------------ *)

let rcv_state =
  let module R = Rla.Rcv_state in
  Codec.record
    (let+ s_board = Codec.field scoreboard (fun s -> s.R.s_board)
     and+ s_srtt = Codec.field ewma (fun s -> s.R.s_srtt)
     and+ s_interval = Codec.field ewma (fun s -> s.R.s_interval)
     and+ s_cperiod_start = Codec.field Codec.f64 (fun s -> s.R.s_cperiod_start)
     and+ s_last_signal = Codec.field Codec.f64 (fun s -> s.R.s_last_signal)
     and+ s_signals = Codec.field Codec.int (fun s -> s.R.s_signals)
     and+ s_acks = Codec.field Codec.int (fun s -> s.R.s_acks)
     and+ s_active = Codec.field Codec.bool (fun s -> s.R.s_active) in
     {
       R.s_board;
       s_srtt;
       s_interval;
       s_cperiod_start;
       s_last_signal;
       s_signals;
       s_acks;
       s_active;
     })

let pending_ack =
  Codec.record
    (let+ id = Codec.field Codec.int (fun (id, _, _) -> id)
     and+ echo = Codec.field Codec.f64 (fun (_, echo, _) -> echo)
     and+ ece = Codec.field Codec.bool (fun (_, _, ece) -> ece) in
     (id, echo, ece))

let rla_receiver =
  let module R = Rla.Receiver in
  Codec.record
    (let+ s_rng = Codec.field Codec.i64 (fun s -> s.R.s_rng)
     and+ s_ooo = Codec.field (Codec.list Codec.int) (fun s -> s.R.s_ooo)
     and+ s_recent = Codec.field (Codec.list Codec.int) (fun s -> s.R.s_recent)
     and+ s_expected = Codec.field Codec.int (fun s -> s.R.s_expected)
     and+ s_received_total = Codec.field Codec.int (fun s -> s.R.s_received_total)
     and+ s_duplicates = Codec.field Codec.int (fun s -> s.R.s_duplicates)
     and+ s_rexmits_received =
       Codec.field Codec.int (fun s -> s.R.s_rexmits_received)
     and+ s_pending_acks =
       Codec.field (Codec.list pending_ack) (fun s -> s.R.s_pending_acks)
     in
     {
       R.s_rng;
       s_ooo;
       s_recent;
       s_expected;
       s_received_total;
       s_duplicates;
       s_rexmits_received;
       s_pending_acks;
     })

let coverage =
  let module S = Rla.Sender in
  Codec.record
    (let+ c_seq = Codec.field Codec.int (fun c -> c.S.c_seq)
     and+ c_covered = Codec.field Codec.int (fun c -> c.S.c_covered)
     and+ c_rexmitted = Codec.field Codec.bool (fun c -> c.S.c_rexmitted)
     and+ c_sent_at = Codec.field Codec.f64 (fun c -> c.S.c_sent_at) in
     { S.c_seq; c_covered; c_rexmitted; c_sent_at })

let rexmit_target =
  Codec.variant "rexmit-target"
    [
      Codec.const 0 Rla.Sender.To_group;
      Codec.case 1 (Codec.list Codec.int)
        (fun addrs -> Rla.Sender.To_receivers addrs)
        (function Rla.Sender.To_receivers addrs -> Some addrs | _ -> None);
    ]

let rla_sender =
  let module S = Rla.Sender in
  let ints = Codec.list Codec.int and event = Codec.option Codec.int in
  Codec.record
    (let+ s_rcvrs = Codec.field (Codec.list rcv_state) (fun s -> s.S.s_rcvrs)
     and+ s_n_active = Codec.field Codec.int (fun s -> s.S.s_n_active)
     and+ s_endpoints =
       Codec.field (Codec.list rla_receiver) (fun s -> s.S.s_endpoints)
     and+ s_rng = Codec.field Codec.i64 (fun s -> s.S.s_rng)
     and+ s_rto = Codec.field rto (fun s -> s.S.s_rto)
     and+ s_cwnd = Codec.field Codec.f64 (fun s -> s.S.s_cwnd)
     and+ s_ssthresh = Codec.field Codec.f64 (fun s -> s.S.s_ssthresh)
     and+ s_awnd = Codec.field ewma (fun s -> s.S.s_awnd)
     and+ s_last_window_cut =
       Codec.field Codec.f64 (fun s -> s.S.s_last_window_cut)
     and+ s_next_seq = Codec.field Codec.int (fun s -> s.S.s_next_seq)
     and+ s_mra = Codec.field Codec.int (fun s -> s.S.s_mra)
     and+ s_coverage = Codec.field (Codec.list coverage) (fun s -> s.S.s_coverage)
     and+ s_pending = Codec.field ints (fun s -> s.S.s_pending)
     and+ s_rexmit_queue =
       Codec.field
         (Codec.list (Codec.pair Codec.int rexmit_target))
         (fun s -> s.S.s_rexmit_queue)
     and+ s_queued = Codec.field ints (fun s -> s.S.s_queued)
     and+ s_timer = Codec.field event (fun s -> s.S.s_timer)
     and+ s_start_event = Codec.field event (fun s -> s.S.s_start_event)
     and+ s_num_trouble = Codec.field Codec.int (fun s -> s.S.s_num_trouble)
     and+ s_window_cuts = Codec.field Codec.int (fun s -> s.S.s_window_cuts)
     and+ s_forced_cuts = Codec.field Codec.int (fun s -> s.S.s_forced_cuts)
     and+ s_timeouts = Codec.field Codec.int (fun s -> s.S.s_timeouts)
     and+ s_signals = Codec.field Codec.int (fun s -> s.S.s_signals)
     and+ s_rexmits_multicast =
       Codec.field Codec.int (fun s -> s.S.s_rexmits_multicast)
     and+ s_rexmits_unicast =
       Codec.field Codec.int (fun s -> s.S.s_rexmits_unicast)
     and+ s_sent_new = Codec.field Codec.int (fun s -> s.S.s_sent_new)
     and+ s_cwnd_avg = Codec.field time_avg (fun s -> s.S.s_cwnd_avg)
     and+ s_rtt = Codec.field welford (fun s -> s.S.s_rtt)
     and+ s_rtt_acks = Codec.field welford (fun s -> s.S.s_rtt_acks)
     and+ s_meas_time = Codec.field Codec.f64 (fun s -> s.S.s_meas_time)
     and+ s_meas_mra = Codec.field Codec.int (fun s -> s.S.s_meas_mra)
     and+ s_meas_signals = Codec.field Codec.int (fun s -> s.S.s_meas_signals)
     and+ s_meas_cuts = Codec.field Codec.int (fun s -> s.S.s_meas_cuts)
     and+ s_meas_forced = Codec.field Codec.int (fun s -> s.S.s_meas_forced)
     and+ s_meas_timeouts = Codec.field Codec.int (fun s -> s.S.s_meas_timeouts)
     and+ s_meas_rexmits = Codec.field Codec.int (fun s -> s.S.s_meas_rexmits)
     and+ s_meas_sent_new = Codec.field Codec.int (fun s -> s.S.s_meas_sent_new)
     and+ s_meas_signals_per = Codec.field ints (fun s -> s.S.s_meas_signals_per)
     in
     {
       S.s_rcvrs;
       s_n_active;
       s_endpoints;
       s_rng;
       s_rto;
       s_cwnd;
       s_ssthresh;
       s_awnd;
       s_last_window_cut;
       s_next_seq;
       s_mra;
       s_coverage;
       s_pending;
       s_rexmit_queue;
       s_queued;
       s_timer;
       s_start_event;
       s_num_trouble;
       s_window_cuts;
       s_forced_cuts;
       s_timeouts;
       s_signals;
       s_rexmits_multicast;
       s_rexmits_unicast;
       s_sent_new;
       s_cwnd_avg;
       s_rtt;
       s_rtt_acks;
       s_meas_time;
       s_meas_mra;
       s_meas_signals;
       s_meas_cuts;
       s_meas_forced;
       s_meas_timeouts;
       s_meas_rexmits;
       s_meas_sent_new;
       s_meas_signals_per;
     })

(* --- registry ------------------------------------------------------- *)

let series =
  let module S = Obs.Series in
  Codec.record
    (let+ s_times = Codec.field Codec.floats (fun s -> s.S.s_times)
     and+ s_values = Codec.field Codec.floats (fun s -> s.S.s_values)
     and+ s_stride = Codec.field Codec.int (fun s -> s.S.s_stride)
     and+ s_skip = Codec.field Codec.int (fun s -> s.S.s_skip)
     and+ s_offered = Codec.field Codec.int (fun s -> s.S.s_offered) in
     { S.s_times; s_values; s_stride; s_skip; s_offered })

let named_series =
  Codec.record
    (let+ name = Codec.field Codec.string (fun (name, _, _) -> name)
     and+ limit = Codec.field Codec.int (fun (_, limit, _) -> limit)
     and+ series = Codec.field series (fun (_, _, series) -> series) in
     (name, limit, series))

let registry =
  let module R = Obs.Registry in
  Codec.record
    (let+ s_counters =
       Codec.field
         (Codec.list (Codec.pair Codec.string Codec.int))
         (fun s -> s.R.s_counters)
     and+ s_gauges =
       Codec.field
         (Codec.list (Codec.pair Codec.string Codec.f64))
         (fun s -> s.R.s_gauges)
     and+ s_series =
       Codec.field (Codec.list named_series) (fun s -> s.R.s_series)
     in
     { R.s_counters; s_gauges; s_series })

(* --- sharing config ------------------------------------------------- *)

let gateway =
  Codec.variant "gateway"
    [
      Codec.const 0 Experiments.Scenario.Droptail;
      Codec.const 1 Experiments.Scenario.Red;
    ]

let tree_case =
  let module T = Experiments.Tree in
  Codec.variant "tree-case"
    [
      Codec.const 0 T.L1_bottleneck;
      Codec.const 1 T.L2_all;
      Codec.const 2 T.L3_all;
      Codec.const 3 T.L4_all;
      Codec.case 4 Codec.int
        (fun k -> T.L4_first k)
        (function T.L4_first k -> Some k | _ -> None);
      Codec.const 5 T.L2_single;
    ]

let rtt_scaling =
  Codec.variant "rtt-scaling"
    [
      Codec.const 0 Rla.Params.Equal_rtt;
      Codec.case 1 Codec.f64
        (fun k -> Rla.Params.Rtt_power k)
        (function Rla.Params.Rtt_power k -> Some k | _ -> None);
    ]

let trouble_counting =
  Codec.variant "trouble-counting"
    [ Codec.const 0 Rla.Params.Dynamic; Codec.const 1 Rla.Params.All_receivers ]

let rla_params =
  let module P = Rla.Params in
  Codec.record
    (let+ eta = Codec.field Codec.f64 (fun p -> p.P.eta)
     and+ group_rtt_factor = Codec.field Codec.f64 (fun p -> p.P.group_rtt_factor)
     and+ forced_cut_factor =
       Codec.field Codec.f64 (fun p -> p.P.forced_cut_factor)
     and+ rtt_scaling = Codec.field rtt_scaling (fun p -> p.P.rtt_scaling)
     and+ trouble_counting =
       Codec.field trouble_counting (fun p -> p.P.trouble_counting)
     and+ rexmit_thresh = Codec.field Codec.int (fun p -> p.P.rexmit_thresh)
     and+ awnd_weight = Codec.field Codec.f64 (fun p -> p.P.awnd_weight)
     and+ interval_ewma_weight =
       Codec.field Codec.f64 (fun p -> p.P.interval_ewma_weight)
     and+ srtt_weight = Codec.field Codec.f64 (fun p -> p.P.srtt_weight)
     and+ dupthresh = Codec.field Codec.int (fun p -> p.P.dupthresh)
     and+ init_cwnd = Codec.field Codec.f64 (fun p -> p.P.init_cwnd)
     and+ init_ssthresh = Codec.field Codec.f64 (fun p -> p.P.init_ssthresh)
     and+ max_burst = Codec.field Codec.int (fun p -> p.P.max_burst)
     and+ rcv_buffer = Codec.field Codec.int (fun p -> p.P.rcv_buffer)
     and+ data_size = Codec.field Codec.int (fun p -> p.P.data_size)
     and+ min_rto = Codec.field Codec.f64 (fun p -> p.P.min_rto)
     and+ ack_jitter = Codec.field Codec.f64 (fun p -> p.P.ack_jitter)
     and+ rexmit_timeout_factor =
       Codec.field Codec.f64 (fun p -> p.P.rexmit_timeout_factor)
     in
     {
       P.eta;
       group_rtt_factor;
       forced_cut_factor;
       rtt_scaling;
       trouble_counting;
       rexmit_thresh;
       awnd_weight;
       interval_ewma_weight;
       srtt_weight;
       dupthresh;
       init_cwnd;
       init_ssthresh;
       max_burst;
       rcv_buffer;
       data_size;
       min_rto;
       ack_jitter;
       rexmit_timeout_factor;
     })

let sharing_config =
  let module S = Experiments.Sharing in
  Codec.record
    (let+ gateway = Codec.field gateway (fun c -> c.S.gateway)
     and+ case = Codec.field tree_case (fun c -> c.S.case)
     and+ duration = Codec.field Codec.f64 (fun c -> c.S.duration)
     and+ warmup = Codec.field Codec.f64 (fun c -> c.S.warmup)
     and+ seed = Codec.field Codec.int (fun c -> c.S.seed)
     and+ rla_params = Codec.field rla_params (fun c -> c.S.rla_params)
     and+ share = Codec.field Codec.f64 (fun c -> c.S.share)
     and+ phase_jitter =
       Codec.field (Codec.option Codec.bool) (fun c -> c.S.phase_jitter)
     and+ ecn = Codec.field Codec.bool (fun c -> c.S.ecn) in
     {
       S.gateway;
       case;
       duration;
       warmup;
       seed;
       rla_params;
       share;
       phase_jitter;
       ecn;
     })
