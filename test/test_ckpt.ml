(* Checkpoint subsystem tests: codec primitives and container
   robustness (truncation, corruption), qcheck round-trips over
   randomized component states, the scheduler re-arm protocol, the
   fault-injector capture/restore, journal save/load/diff, and a fast
   end-to-end save -> load -> resume equivalence check (the slow
   byte-identity variant lives in test_integration.ml). *)

let tmp_file suffix =
  Filename.temp_file "rla_ckpt_test" suffix

(* --- codec primitives ----------------------------------------------- *)

let test_primitive_round_trip () =
  let b = Buffer.create 64 in
  Ckpt.Codec.w_int b 42;
  Ckpt.Codec.w_int b (-7);
  Ckpt.Codec.w_f64 b 3.25;
  Ckpt.Codec.w_f64 b (-0.0);
  Ckpt.Codec.w_f64 b infinity;
  Ckpt.Codec.w_f64 b nan;
  Ckpt.Codec.w_bool b true;
  Ckpt.Codec.w_string b "hello\x00world";
  Ckpt.Codec.w_option Ckpt.Codec.w_int b None;
  Ckpt.Codec.w_option Ckpt.Codec.w_int b (Some 9);
  Ckpt.Codec.w_list Ckpt.Codec.w_int b [ 1; 2; 3 ];
  let r = Ckpt.Codec.reader (Buffer.contents b) in
  Alcotest.(check int) "int" 42 (Ckpt.Codec.r_int r);
  Alcotest.(check int) "negative int" (-7) (Ckpt.Codec.r_int r);
  Alcotest.(check (float 0.0)) "float" 3.25 (Ckpt.Codec.r_f64 r);
  Alcotest.(check bool) "negative zero bits" true
    (Int64.equal (Int64.bits_of_float (Ckpt.Codec.r_f64 r))
       (Int64.bits_of_float (-0.0)));
  Alcotest.(check bool) "infinity" true
    (Float.equal (Ckpt.Codec.r_f64 r) infinity);
  Alcotest.(check bool) "nan round-trips" true (Float.is_nan (Ckpt.Codec.r_f64 r));
  Alcotest.(check bool) "bool" true (Ckpt.Codec.r_bool r);
  Alcotest.(check string) "string with NUL" "hello\x00world"
    (Ckpt.Codec.r_string r);
  Alcotest.(check bool) "none" true
    (Ckpt.Codec.r_option Ckpt.Codec.r_int r = None);
  Alcotest.(check bool) "some" true
    (Ckpt.Codec.r_option Ckpt.Codec.r_int r = Some 9);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (Ckpt.Codec.r_list Ckpt.Codec.r_int r);
  Alcotest.(check bool) "fully consumed" true (Ckpt.Codec.at_end r)

let test_i64_and_pair_round_trip () =
  let b = Buffer.create 32 in
  Ckpt.Codec.w_i64 b 0x0123456789ABCDEFL;
  Ckpt.Codec.w_i64 b (-1L);
  Ckpt.Codec.w_pair Ckpt.Codec.w_int Ckpt.Codec.w_f64 b (42, 1.5);
  let r = Ckpt.Codec.reader (Buffer.contents b) in
  Alcotest.(check int64) "i64" 0x0123456789ABCDEFL (Ckpt.Codec.r_i64 r);
  Alcotest.(check int64) "negative i64" (-1L) (Ckpt.Codec.r_i64 r);
  let i, f = Ckpt.Codec.r_pair Ckpt.Codec.r_int Ckpt.Codec.r_f64 r in
  Alcotest.(check int) "pair fst" 42 i;
  Alcotest.(check (float 0.0)) "pair snd" 1.5 f;
  Alcotest.(check bool) "fully consumed" true (Ckpt.Codec.at_end r)

let test_parse_payload_trailing_bytes () =
  let b = Buffer.create 16 in
  Ckpt.Codec.w_int b 7;
  Ckpt.Codec.w_int b 9;
  let section = { Ckpt.Codec.name = "x"; payload = Buffer.contents b } in
  (match Ckpt.Codec.parse_payload section Ckpt.Codec.r_int with
  | Error (Ckpt.Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error e -> Alcotest.failf "wrong error %s" (Ckpt.Codec.error_to_string e));
  match
    Ckpt.Codec.parse_payload section
      (Ckpt.Codec.r_pair Ckpt.Codec.r_int Ckpt.Codec.r_int)
  with
  | Ok (7, 9) -> ()
  | Ok _ -> Alcotest.fail "wrong payload decoded"
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)

let sections_fixture =
  [
    { Ckpt.Codec.name = "alpha"; payload = "some payload bytes" };
    { Ckpt.Codec.name = "beta"; payload = "" };
    { Ckpt.Codec.name = "gamma"; payload = String.init 256 Char.chr };
  ]

let test_container_round_trip () =
  let encoded = Ckpt.Codec.encode sections_fixture in
  match Ckpt.Codec.decode encoded with
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
  | Ok sections ->
      Alcotest.(check int) "section count" 3 (List.length sections);
      List.iter2
        (fun (a : Ckpt.Codec.section) (b : Ckpt.Codec.section) ->
          Alcotest.(check string) "name" a.Ckpt.Codec.name b.Ckpt.Codec.name;
          Alcotest.(check string) "payload" a.payload b.payload)
        sections_fixture sections

let test_truncation_never_raises () =
  (* Every proper prefix of a valid file must decode to a typed error,
     never an exception. *)
  let encoded = Ckpt.Codec.encode sections_fixture in
  for len = 0 to String.length encoded - 1 do
    match Ckpt.Codec.decode (String.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded successfully" len
    | Error (Ckpt.Codec.Truncated | Ckpt.Codec.Bad_magic) -> ()
    | Error e ->
        Alcotest.failf "prefix of %d bytes: unexpected %s" len
          (Ckpt.Codec.error_to_string e)
  done

let test_corruption_detected_per_section () =
  let encoded = Ckpt.Codec.encode sections_fixture in
  (* Flip a byte inside the last section's payload: the CRC must name
     that section. *)
  let target = "gamma" in
  let idx =
    (* The 257-byte payload is unique; find one of its bytes. *)
    let rec find i =
      if i >= String.length encoded then Alcotest.fail "pattern not found"
      else if
        i + 4 <= String.length encoded
        && String.equal (String.sub encoded i 4) "\x00\x01\x02\x03"
      then i
      else find (i + 1)
    in
    find 0
  in
  let corrupted = Bytes.of_string encoded in
  Bytes.set corrupted (idx + 2) '\xff';
  (match Ckpt.Codec.decode (Bytes.to_string corrupted) with
  | Error (Ckpt.Codec.Crc_mismatch name) ->
      Alcotest.(check string) "names the bad section" target name
  | Ok _ -> Alcotest.fail "corruption went undetected"
  | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e));
  (* Bad magic. *)
  let bad_magic = Bytes.of_string encoded in
  Bytes.set bad_magic 0 'X';
  (match Ckpt.Codec.decode (Bytes.to_string bad_magic) with
  | Error Ckpt.Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic undetected");
  (* Future version. *)
  let bad_version = Bytes.of_string encoded in
  Bytes.set bad_version 15 '\x63';
  match Ckpt.Codec.decode (Bytes.to_string bad_version) with
  | Error (Ckpt.Codec.Bad_version 99) -> ()
  | _ -> Alcotest.fail "version mismatch undetected"

let test_crc32_check_value () =
  Alcotest.(check int64) "standard check value" 0xCBF43926L
    (Ckpt.Codec.crc32 "123456789");
  Alcotest.(check int64) "empty string" 0L (Ckpt.Codec.crc32 "")

(* The byte-at-a-time loop [Codec.crc32] used before slicing-by-8,
   kept as the oracle. *)
let reference_crc32 s =
  let table =
    Array.init 256 (fun n ->
        let c = ref n in
        for _ = 0 to 7 do
          c := if !c land 1 <> 0 then 0xEDB88320 lxor (!c lsr 1) else !c lsr 1
        done;
        !c)
  in
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := table.((!crc lxor Char.code ch) land 0xFF) lxor (!crc lsr 8))
    s;
  Int64.of_int (!crc lxor 0xFFFFFFFF)

(* Every length up to 64 (up to eight 8-byte steps, every tail).  Each
   byte has its top bit set, so every 32-bit word reads as a negative
   [int32]. *)
let test_crc32_every_short_length () =
  let bytes =
    String.init 64 (fun i -> Char.chr (0x80 lor ((i * 37) land 0x7F)))
  in
  for len = 0 to 64 do
    let s = String.sub bytes 0 len in
    Alcotest.(check int64)
      (Printf.sprintf "length %d" len)
      (reference_crc32 s) (Ckpt.Codec.crc32 s)
  done

let prop_crc32_matches_bytewise =
  QCheck.Test.make ~name:"crc32 matches the bytewise reference" ~count:500
    QCheck.(string_of_size Gen.(int_bound 4096))
    (fun s -> Int64.equal (Ckpt.Codec.crc32 s) (reference_crc32 s))

(* A failed save (here the rename onto a non-empty directory) raises and
   leaves no [.tmp] file behind. *)
let test_save_failure_removes_tmp () =
  let dir = Filename.temp_dir "rla_ckpt_test" "" in
  let inner = Filename.concat dir "occupied" in
  Out_channel.with_open_bin inner (fun oc -> Out_channel.output_string oc "x");
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> Sys.remove (Filename.concat dir f))
        (Sys.readdir dir);
      Sys.rmdir dir;
      if Sys.file_exists (dir ^ ".tmp") then Sys.remove (dir ^ ".tmp"))
    (fun () ->
      (match Ckpt.Codec.save_file ~path:dir sections_fixture with
      | () -> Alcotest.fail "saved onto a non-empty directory"
      | exception Sys_error _ -> ());
      Alcotest.(check bool)
        "no .tmp left" false
        (Sys.file_exists (dir ^ ".tmp"));
      Alcotest.(check (list string)) "directory untouched" [ "occupied" ]
        (Array.to_list (Sys.readdir dir)))

let test_short_i64_is_parse_error () =
  let r = Ckpt.Codec.reader "\001\002\003\004\005\006\007" in
  match Ckpt.Codec.r_i64 r with
  | _ -> Alcotest.fail "7 bytes read as an int64"
  | exception Ckpt.Codec.Parse _ -> ()

let test_cut_mid_section_truncated () =
  let encoded = Ckpt.Codec.encode sections_fixture in
  (* Halfway into the last section's 256-byte payload. *)
  let cut = String.length encoded - 128 in
  match Ckpt.Codec.decode (String.sub encoded 0 cut) with
  | Error Ckpt.Codec.Truncated -> ()
  | Ok _ -> Alcotest.fail "cut file decoded"
  | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e)

let test_load_file_errors () =
  (match Ckpt.Codec.load_file ~path:"/nonexistent/rla.ckpt" with
  | Error (Ckpt.Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "missing file should be Malformed with the OS message");
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.Codec.save_file ~path sections_fixture;
      (match Ckpt.Codec.load_file ~path with
      | Ok s -> Alcotest.(check int) "sections back" 3 (List.length s)
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e));
      (* Truncate the file on disk: typed error, no exception. *)
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full / 2)));
      match Ckpt.Codec.load_file ~path with
      | Error Ckpt.Codec.Truncated -> ()
      | Ok _ -> Alcotest.fail "truncated file loaded"
      | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e))

(* --- qcheck state round-trips --------------------------------------- *)

let gen_scoreboard_state =
  QCheck.make
    QCheck.Gen.(
      let* n = int_bound 30 in
      let* entries =
        flatten_l
          (List.init n (fun i ->
               let* sacked = bool in
               let* lost = bool in
               let* rexmitted = bool in
               let* rexmit_time = float_bound_inclusive 100.0 in
               return
                 {
                   Tcp.Scoreboard.e_seq = i;
                   e_sacked = sacked;
                   e_lost = lost && not sacked;
                   e_rexmitted = rexmitted;
                   e_rexmit_time = rexmit_time;
                 }))
      in
      let* high_ack = int_bound 100 in
      let* extra = int_bound 50 in
      return
        {
          Tcp.Scoreboard.s_entries = entries;
          s_high_ack = high_ack;
          s_next_seq = high_ack + n + extra;
          s_highest_sacked = high_ack + n - 1;
          s_sacked_cnt = List.length (List.filter (fun e -> e.Tcp.Scoreboard.e_sacked) entries);
          s_lost_cnt = List.length (List.filter (fun e -> e.Tcp.Scoreboard.e_lost) entries);
          s_rexmit_out = 0;
          s_loss_floor = high_ack;
        })

let prop_scoreboard_codec_round_trip =
  QCheck.Test.make ~name:"tcp sender state codec round-trips" ~count:200
    gen_scoreboard_state (fun st ->
      let buf = Buffer.create 256 in
      let st_wrapped =
        {
          Tcp.Sender.s_sb = st;
          s_rto = { Tcp.Rto.s_srtt = 0.1; s_rttvar = 0.05; s_shift = 0; s_samples = 3 };
          s_receiver =
            {
              Tcp.Receiver.s_ooo = [ 5; 7 ];
              s_recent = [ 7; 5 ];
              s_expected = 4;
              s_received_total = 11;
              s_duplicates = 1;
              s_t0 = 0.0;
              s_wscale = 2;
              s_sack_ok = true;
              s_rst_strict = true;
              s_closed = false;
              s_syn_received = true;
              s_rst_accepted = 0;
              s_rst_challenged = 1;
              s_rst_dropped = 2;
              s_challenge_acks = 1;
              s_ghost_data = 0;
              s_probes_received = 3;
            };
          s_cwnd = 3.5;
          s_ssthresh = 8.0;
          s_in_recovery = false;
          s_recover_point = 0;
          s_timer = Some 17;
          s_start_event = None;
          s_cwnd_avg =
            { Stats.Time_avg.s_start = 0.0; s_last_time = 1.0; s_last_value = 3.5; s_weighted_sum = 3.5 };
          s_rtt = { Stats.Welford.s_n = 2; s_mean = 0.2; s_m2 = 0.0; s_min = 0.1; s_max = 0.3 };
          s_sent_new = 20;
          s_retransmits = 2;
          s_window_cuts = 1;
          s_timeouts = 0;
          s_meas_time = 0.0;
          s_meas_delivered = 0;
          s_meas_sent_new = 0;
          s_meas_retransmits = 0;
          s_meas_window_cuts = 0;
          s_meas_timeouts = 0;
          s_completed_at = None;
          s_established = true;
          s_syn_sent = 1;
          s_neg_wscale = 2;
          s_rwnd_field = 17;
          s_persist_timer = Some 23;
          s_persist_shift = 1;
          s_zero_window_probes = 4;
          s_ghost_acks = 2;
        }
      in
      Ckpt.State.w_tcp_sender buf st_wrapped;
      let r = Ckpt.Codec.reader (Buffer.contents buf) in
      let back = Ckpt.State.r_tcp_sender r in
      Ckpt.Codec.at_end r && back = st_wrapped)

let gen_packet =
  QCheck.Gen.(
    let* uid = int_bound 10_000 in
    let* flow = int_bound 30 in
    let* src = int_bound 40 in
    let* unicast = bool in
    let* target = int_bound 40 in
    let* size = int_range 40 1500 in
    let* born = float_bound_inclusive 300.0 in
    let* ecn = bool in
    let* tag = int_bound 8 in
    let* seq = int_bound 5000 in
    let* sent_at = float_bound_inclusive 300.0 in
    let* rexmit = bool in
    let* rwnd_raw = int_bound 64 in
    let rwnd = rwnd_raw - 1 in
    let payload =
      match tag with
      | 0 -> Net.Packet.Raw
      | 1 -> Tcp.Wire.Tcp_data { seq; sent_at }
      | 2 ->
          Tcp.Wire.Tcp_ack
            {
              cum_ack = seq;
              blocks = [ { Tcp.Wire.block_lo = seq + 2; block_hi = seq + 4 } ];
              echo = sent_at;
              ece = rexmit;
              rwnd;
            }
      | 3 -> Rla.Wire.Rla_data { seq; sent_at; rexmit }
      | 5 -> Tcp.Wire.Tcp_syn { options = seq land 0x1FFFFF; sent_at }
      | 6 ->
          Tcp.Wire.Tcp_syn_ack
            { options = seq land 0x1FFFFF; rwnd = rwnd_raw; sent_at }
      | 7 -> Tcp.Wire.Tcp_rst { seq }
      | 8 -> Tcp.Wire.Tcp_probe { seq; sent_at }
      | _ ->
          Rla.Wire.Rla_ack
            {
              rcvr = target;
              cum_ack = seq;
              blocks = [];
              echo = sent_at;
              ece = ecn;
            }
    in
    return
      {
        Net.Packet.uid;
        flow;
        src;
        dst = (if unicast then Net.Packet.Unicast target else Net.Packet.Multicast target);
        size;
        payload;
        born;
        ecn;
        refs = 1;
      })

let gen_link_state =
  QCheck.make
    QCheck.Gen.(
      let* bw = float_range 1e4 1e8 in
      let* delay = float_range 1e-4 0.2 in
      let* buffer = list_size (int_bound 8) gen_packet in
      let* in_service = opt gen_packet in
      let* inflight_pkts = list_size (int_bound 6) gen_packet in
      let* up = bool in
      let* rng_bits = ui64 in
      let* red = bool in
      let* avg = float_bound_inclusive 20.0 in
      let busy = Option.is_some in_service in
      let inflight = List.mapi (fun i p -> (100 + (2 * i), p)) inflight_pkts in
      let tx_event = if busy then Some 51 else None in
      return
        {
          Net.Link.s_bandwidth_bps = bw;
          s_prop_delay = delay;
          s_buffer = (if busy then buffer else []);
          s_busy = busy;
          s_in_service = in_service;
          s_tx_event = tx_event;
          s_inflight = inflight;
          s_up = up;
          s_down_since = 0.0;
          s_downtime_acc = 0.5;
          s_last_delivery = 12.25;
          s_offered = 100;
          s_dropped = 3;
          s_delivered = 90;
          s_bytes_delivered = 90_000;
          s_marked = 1;
          s_rng = rng_bits;
          s_disc =
            (if red then
               Net.Queue_disc.Red
                 {
                   Net.Red.s_avg = avg;
                   s_count = 4;
                   s_q_time = 1.5;
                   s_idle = false;
                   s_drops = 2;
                   s_marks = 1;
                 }
             else Net.Queue_disc.Stateless);
        })

let prop_link_codec_round_trip =
  QCheck.Test.make ~name:"link state codec round-trips" ~count:200 gen_link_state
    (fun st ->
      let buf = Buffer.create 512 in
      Ckpt.State.w_network buf
        {
          Net.Network.s_root_rng = 77L;
          s_next_flow = 3;
          s_next_group = 1;
          s_next_uid = 999;
          s_nodes = [ 0; 0; 1 ];
          s_links = [ st ];
        };
      let r = Ckpt.Codec.reader (Buffer.contents buf) in
      let back = Ckpt.State.r_network r in
      Ckpt.Codec.at_end r && back.Net.Network.s_links = [ st ])

let gen_scheduler_state =
  QCheck.make
    QCheck.Gen.(
      let* n = int_bound 20 in
      let* times = flatten_l (List.init n (fun _ -> float_range 0.0 100.0)) in
      let* clock = float_bound_inclusive 50.0 in
      let* fired = int_bound 1000 in
      let pending =
        List.mapi (fun i t -> (fired + i, clock +. t)) times
      in
      return
        {
          Sim.Scheduler.s_clock = clock;
          s_next_id = fired + n;
          s_fired = fired;
          s_pending = pending;
        })

let prop_scheduler_codec_round_trip =
  QCheck.Test.make ~name:"scheduler state codec round-trips" ~count:300
    gen_scheduler_state (fun st ->
      let buf = Buffer.create 256 in
      Ckpt.State.w_scheduler buf st;
      let r = Ckpt.Codec.reader (Buffer.contents buf) in
      let back = Ckpt.State.r_scheduler r in
      Ckpt.Codec.at_end r && back = st)

let prop_scheduler_restore_preserves_order =
  (* restore (capture s) into a fresh scheduler + rearm reproduces the
     exact firing order and capture again equals the original state. *)
  QCheck.Test.make ~name:"scheduler capture/restore/rearm replays pop order"
    ~count:100
    QCheck.(list_of_size (QCheck.Gen.int_bound 20) (QCheck.float_range 0.0 10.0))
    (fun delays ->
      let record sched log =
        List.iteri
          (fun i d ->
            ignore
              (Sim.Scheduler.schedule_at sched d (fun () ->
                   log := i :: !log)))
          delays
      in
      let s1 = Sim.Scheduler.create () in
      let log1 = ref [] in
      record s1 log1;
      let st = Sim.Scheduler.capture s1 in
      let s2 = Sim.Scheduler.create () in
      let log2 = ref [] in
      (* Schedule the same events (fresh ids 0..n-1), then restore and
         re-arm each id with its closure. *)
      record s2 log2;
      Sim.Scheduler.restore s2 st;
      List.iteri
        (fun i d ->
          ignore d;
          Sim.Scheduler.rearm s2 ~id:i (fun () -> log2 := i :: !log2))
        delays;
      let ok_rearmed = Sim.Scheduler.unrestored s2 = [] in
      let st2 = Sim.Scheduler.capture s2 in
      Sim.Scheduler.run_until s1 11.0;
      Sim.Scheduler.run_until s2 11.0;
      ok_rearmed && st = st2 && !log1 = !log2)

(* --- heap primitives (used by the scheduler restore path) ------------ *)

let test_heap_capture_restore () =
  let h1 : int Sim.Heap.t = Sim.Heap.create () in
  List.iter
    (fun (p, v) -> Sim.Heap.add h1 ~prio:p v)
    [ (3.0, 30); (1.0, 10); (2.0, 20); (1.0, 11) ];
  let entries = Sim.Heap.capture h1 in
  let next = Sim.Heap.next_seq h1 in
  let h2 : int Sim.Heap.t = Sim.Heap.create () in
  Sim.Heap.restore h2 ~next_seq:next entries;
  Alcotest.(check int) "next_seq carried" next (Sim.Heap.next_seq h2);
  let drain h =
    let out = ref [] in
    let rec go () =
      match Sim.Heap.pop h with
      | None -> List.rev !out
      | Some (_, v) ->
          out := v :: !out;
          go ()
    in
    go ()
  in
  Alcotest.(check (list int)) "same drain order" (drain h1) (drain h2)

(* --- injector capture/restore --------------------------------------- *)

let injector_fixture () =
  let net = Net.Network.create ~seed:5 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore
    (Net.Network.duplex net a b
       (Experiments.Scenario.fast_link_config
          ~gateway:Experiments.Scenario.Droptail ~delay:0.01 ()));
  Net.Network.install_routes net;
  let timeline =
    Faults.Timeline.scripted
      [
        (1.0, Faults.Timeline.Link_down (a, b));
        (2.0, Faults.Timeline.Link_up (a, b));
        (3.0, Faults.Timeline.Link_down (a, b));
        (4.0, Faults.Timeline.Link_up (a, b));
      ]
  in
  (net, Faults.Injector.install ~net timeline)

let test_injector_capture_restore () =
  (* Uninterrupted reference. *)
  let net_ref, inj_ref = injector_fixture () in
  Net.Network.run_until net_ref 5.0;
  (* Interrupted at t=2.5: capture, rebuild, restore, finish. *)
  let net1, inj1 = injector_fixture () in
  Net.Network.run_until net1 2.5;
  let sched_st = Sim.Scheduler.capture (Net.Network.scheduler net1) in
  let net_st = Net.Network.capture net1 in
  let inj_st = Faults.Injector.capture inj1 in
  let net2, inj2 = injector_fixture () in
  Sim.Scheduler.restore (Net.Network.scheduler net2) sched_st;
  Net.Network.restore net2 net_st;
  Faults.Injector.restore inj2 inj_st;
  Alcotest.(check (list int)) "all events claimed" []
    (Sim.Scheduler.unrestored (Net.Network.scheduler net2));
  Alcotest.(check int) "log restored" (Faults.Injector.injected inj1)
    (Faults.Injector.injected inj2);
  Net.Network.run_until net2 5.0;
  Alcotest.(check int) "same injections" (Faults.Injector.injected inj_ref)
    (Faults.Injector.injected inj2);
  Alcotest.(check int) "same outages" (Faults.Injector.outages inj_ref)
    (Faults.Injector.outages inj2);
  Alcotest.(check bool) "same applied log" true
    (Faults.Injector.applied inj_ref = Faults.Injector.applied inj2);
  Alcotest.(check (float 1e-12)) "same downtime"
    (Faults.Injector.downtime inj_ref)
    (Faults.Injector.downtime inj2)

let test_injector_codec_round_trip () =
  let net, inj = injector_fixture () in
  Net.Network.run_until net 2.5;
  let st = Faults.Injector.capture inj in
  let buf = Buffer.create 256 in
  Ckpt.State.w_injector buf st;
  let r = Ckpt.Codec.reader (Buffer.contents buf) in
  let back = Ckpt.State.r_injector r in
  Alcotest.(check bool) "codec round-trip" true
    (Ckpt.Codec.at_end r && back = st)

(* --- journal --------------------------------------------------------- *)

let test_journal_save_load_diff () =
  let j1 = Ckpt.Journal.create () in
  let j2 = Ckpt.Journal.create () in
  let e1 = { Ckpt.Journal.time = 1.5; source = "rla.flow0"; event = "window_cut"; value = 4.0 } in
  let e2 = { Ckpt.Journal.time = 2.25; source = "link3"; event = "drop"; value = 1.0 } in
  let e3 = { Ckpt.Journal.time = 3.0; source = "tcp.flow4"; event = "window_cut"; value = 2.0 } in
  List.iter (Ckpt.Journal.record j1) [ e1; e2; e3 ];
  List.iter (Ckpt.Journal.record j2) [ e1; e2 ];
  (match Ckpt.Journal.diff j1 j1 with
  | None -> ()
  | Some _ -> Alcotest.fail "identical journals diff");
  (match Ckpt.Journal.diff j1 j2 with
  | Some { Ckpt.Journal.index = 2; a = Some a; b = None } ->
      Alcotest.(check string) "divergent event" "window_cut" a.Ckpt.Journal.event
  | _ -> Alcotest.fail "expected divergence at index 2");
  let path = tmp_file ".journal" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.Journal.save j1 ~path;
      match Ckpt.Journal.load ~path with
      | Error msg -> Alcotest.fail msg
      | Ok j1' -> (
          match Ckpt.Journal.diff j1 j1' with
          | None -> ()
          | Some d ->
              Alcotest.failf "journal changed across save/load at %d"
                d.Ckpt.Journal.index))

let test_journal_entries_bit_exact () =
  let j = Ckpt.Journal.create () in
  let e = { Ckpt.Journal.time = 1.0; source = "t"; event = "e"; value = 0.5 } in
  Ckpt.Journal.record j e;
  Ckpt.Journal.record j { e with Ckpt.Journal.value = -0.0 };
  match Ckpt.Journal.entries j with
  | [ a; b ] ->
      Alcotest.(check bool) "recording order preserved" true
        (Ckpt.Journal.entry_equal a e);
      Alcotest.(check bool) "-0. and 0. are distinct payloads" false
        (Ckpt.Journal.entry_equal b { e with Ckpt.Journal.value = 0.0 })
  | _ -> Alcotest.fail "expected two entries"

(* --- manager --------------------------------------------------------- *)

let test_manager_boundaries () =
  (* An empty network still advances its clock under [run_until], so
     the boundary arithmetic is testable without a simulation. *)
  let saves manager until =
    let net = Net.Network.create ~seed:1 () in
    let log = ref [] in
    let m = manager (fun ~time -> log := time :: !log) in
    Ckpt.Manager.run m ~net ~until;
    List.rev !log
  in
  Alcotest.(check (list (float 0.0)))
    "boundaries, final horizon included" [ 2.0; 4.0; 6.0 ]
    (saves (fun save -> Ckpt.Manager.create ~every:2.0 ~save) 6.0);
  Alcotest.(check (list (float 0.0)))
    "resume_from skips saved boundaries" [ 6.0; 8.0 ]
    (saves
       (fun save ->
         let m = Ckpt.Manager.create ~every:2.0 ~save in
         Ckpt.Manager.resume_from m 4.0;
         m)
       8.0)

(* --- end-to-end save/load/resume (fast variant) ---------------------- *)

let small_config =
  {
    (Experiments.Sharing.default_config ~gateway:Experiments.Scenario.Droptail
       ~case:Experiments.Tree.L4_all)
    with
    Experiments.Sharing.duration = 30.0;
    warmup = 10.0;
    seed = 11;
  }

let test_save_load_resume_equivalent () =
  let dir = Filename.temp_file "rla_ckpt_dir" "" in
  Sys.remove dir;
  let reference = Experiments.Sharing.run small_config in
  let checkpointed =
    Ckpt.Sharing_ckpt.run_with_checkpoints ~every:8.0 ~dir ~prefix:"t"
      small_config
  in
  (* Checkpointing is passive: same result as the plain run. *)
  Alcotest.(check (float 0.0)) "ckpt run: same send rate"
    reference.Experiments.Sharing.rla.Rla.Sender.send_rate
    checkpointed.Experiments.Sharing.rla.Rla.Sender.send_rate;
  let ckpt_t16 = Ckpt.Sharing_ckpt.checkpoint_file ~dir ~prefix:"t" ~time:16.0 in
  Alcotest.(check bool) "checkpoint written" true (Sys.file_exists ckpt_t16);
  (match Ckpt.Sharing_ckpt.load ~path:ckpt_t16 with
  | Error e -> Alcotest.fail (Ckpt.Sharing_ckpt.error_to_string e)
  | Ok loaded ->
      Alcotest.(check (float 0.0)) "poised at capture time" 16.0
        loaded.Ckpt.Sharing_ckpt.time;
      let resumed = Ckpt.Sharing_ckpt.resume_run loaded in
      Alcotest.(check (float 0.0)) "resumed: same send rate"
        reference.Experiments.Sharing.rla.Rla.Sender.send_rate
        resumed.Experiments.Sharing.rla.Rla.Sender.send_rate;
      Alcotest.(check int) "resumed: same signals"
        reference.Experiments.Sharing.rla.Rla.Sender.congestion_signals
        resumed.Experiments.Sharing.rla.Rla.Sender.congestion_signals;
      Alcotest.(check (float 0.0)) "resumed: same worst-TCP send rate"
        reference.Experiments.Sharing.wtcp.Tcp.Sender.send_rate
        resumed.Experiments.Sharing.wtcp.Tcp.Sender.send_rate);
  (* Meta inspection without a rebuild. *)
  (match Ckpt.Codec.load_file ~path:ckpt_t16 with
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
  | Ok sections -> (
      match Ckpt.Sharing_ckpt.read_meta sections with
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
      | Ok (meta, config) ->
          Alcotest.(check (float 0.0)) "meta time" 16.0 meta.Ckpt.Sharing_ckpt.time;
          Alcotest.(check bool) "meta tcps positive" true
            (meta.Ckpt.Sharing_ckpt.n_tcps > 0);
          Alcotest.(check int) "config seed" 11 config.Experiments.Sharing.seed));
  (* Clean up checkpoint files. *)
  Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  Sys.rmdir dir

(* The checkpoint of the golden run, pinned by a digest recorded before
   the codec moved to whole-word I/O.  The file is [Codec.encode]
   output, and decoding it and encoding again gives the same bytes. *)
let test_checkpoint_bytes_golden () =
  let session, registry = Golden_run.run () in
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Ckpt.Sharing_ckpt.save ~path
        ~time:(Net.Network.now session.Experiments.Sharing.net)
        ~config:Golden_run.config ~session ~registry ();
      let bytes = In_channel.with_open_bin path In_channel.input_all in
      Alcotest.(check int) "length" 5_799_408 (String.length bytes);
      Alcotest.(check string) "digest" "e8d46ba8bcc267c11e90c5559e3aab0e"
        (Digest.to_hex (Digest.string bytes));
      match Ckpt.Codec.decode bytes with
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
      | Ok sections ->
          Alcotest.(check bool) "re-encodes byte-exactly" true
            (String.equal (Ckpt.Codec.encode sections) bytes))

(* --- hardened TCP endpoint: restore at T/2 is byte-identical --------- *)

(* Every PR 10 sender/receiver feature at once — handshake with window
   scaling, a finite receive window (persist timer + zero-window
   probes), Karn's algorithm, strict RFC 5961 validation — plus one
   challenged RST and one ghosted data injection before the capture
   point.  A run interrupted at T/2 and restored into a fresh build
   must end at T with exactly the reference run's state. *)
let hardened_fixture () =
  let net = Net.Network.create ~seed:13 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore
    (Net.Network.duplex net a b
       {
         Net.Link.bandwidth_bps = 10_000.0 *. 8000.0;
         prop_delay = 0.01;
         queue = Net.Queue_disc.Droptail;
         capacity = 200;
         phase_jitter = false;
       });
  Net.Network.install_routes net;
  let params =
    {
      Tcp.Sender.default_params with
      Tcp.Sender.handshake = true;
      wscale = 3;
      window = Some { Tcp.Receiver.capacity = 8; app_rate = 20.0 };
      karn = true;
    }
  in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b ~params () in
  (net, a, b, tcp)

(* Drive the fixture to [until], injecting one in-window RST and one
   far-out-of-window data segment at t=2 (both before any capture
   point this test uses). *)
let hardened_drive (net, a, b, tcp) ~until =
  Net.Network.run_until net (Stdlib.min 2.0 until);
  if until >= 2.0 then begin
    let flow = Tcp.Sender.flow tcp in
    let rcv = Tcp.Sender.receiver tcp in
    let send payload size =
      Net.Network.send net
        (Net.Network.make_packet net ~flow ~src:a ~dst:(Net.Packet.Unicast b)
           ~size ~payload)
    in
    (* In-window for the 8-packet validation window, ahead of the ~20
       pkt/s drain-throttled in-order point during the 10 ms flight. *)
    send
      (Tcp.Wire.Tcp_rst { seq = Tcp.Receiver.expected rcv + 4 })
      Tcp.Wire.ack_size;
    send (Tcp.Wire.Tcp_data { seq = 50_000_000; sent_at = 2.0 }) 1000;
    Net.Network.run_until net until
  end

let test_hardened_endpoint_restore_at_half () =
  let t_full = 20.0 and t_half = 10.0 in
  (* Uninterrupted reference. *)
  let ((_, _, _, tcp_ref) as ref_fx) = hardened_fixture () in
  hardened_drive ref_fx ~until:t_full;
  (* Interrupted at T/2: capture scheduler, network and endpoint. *)
  let ((net1, _, _, tcp1) as fx1) = hardened_fixture () in
  hardened_drive fx1 ~until:t_half;
  let sched_st = Sim.Scheduler.capture (Net.Network.scheduler net1) in
  let net_st = Net.Network.capture net1 in
  let tcp_st = Tcp.Sender.capture tcp1 in
  (* Fresh build (same construction order), restore, finish the run. *)
  let net2, _, _, tcp2 = hardened_fixture () in
  Sim.Scheduler.restore (Net.Network.scheduler net2) sched_st;
  Net.Network.restore net2 net_st;
  Tcp.Sender.restore tcp2 tcp_st;
  Alcotest.(check (list int)) "all pending events claimed" []
    (Sim.Scheduler.unrestored (Net.Network.scheduler net2));
  Net.Network.run_until net2 t_full;
  (* The features actually engaged before the cut... *)
  let rcv_ref = Tcp.Sender.receiver tcp_ref in
  Alcotest.(check bool) "handshake completed" true
    (Tcp.Sender.established tcp_ref);
  Alcotest.(check int) "wscale negotiated" 3
    (Tcp.Sender.negotiated_wscale tcp_ref);
  Alcotest.(check bool) "persist probes sent" true
    (Tcp.Sender.zero_window_probes tcp_ref > 0);
  Alcotest.(check int) "RST challenged" 1 (Tcp.Receiver.rst_challenged rcv_ref);
  Alcotest.(check int) "injection ghosted" 1 (Tcp.Receiver.ghost_data rcv_ref);
  (* ... and the restored run ends in the reference's exact state,
     receiver counters, estimator floats and pending event ids
     included. *)
  Alcotest.(check bool) "byte-identical final state" true
    (Tcp.Sender.capture tcp_ref = Tcp.Sender.capture tcp2)

let test_restore_rejects_wrong_topology () =
  (* A checkpoint from one case must not restore into a session whose
     rebuild disagrees; here we corrupt the config section so the CRC
     catches it first, then check a truncated file as well. *)
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let session = Experiments.Sharing.setup small_config in
      Net.Network.run_until session.Experiments.Sharing.net 5.0;
      Ckpt.Sharing_ckpt.save ~path ~time:5.0 ~config:small_config ~session ();
      let full = In_channel.with_open_bin path In_channel.input_all in
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc
            (String.sub full 0 (String.length full - 11)));
      match Ckpt.Sharing_ckpt.load ~path with
      | Error (Ckpt.Sharing_ckpt.Codec_error Ckpt.Codec.Truncated) -> ()
      | Error e ->
          Alcotest.failf "unexpected error %s"
            (Ckpt.Sharing_ckpt.error_to_string e)
      | Ok _ -> Alcotest.fail "truncated checkpoint restored")

let test_sharing_ckpt_sections () =
  (* A sharing checkpoint carries the sections [load] requires. *)
  let path = tmp_file ".ckpt" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let session = Experiments.Sharing.setup small_config in
      Net.Network.run_until session.Experiments.Sharing.net 5.0;
      Ckpt.Sharing_ckpt.save ~path ~time:5.0 ~config:small_config ~session ();
      match Ckpt.Codec.load_file ~path with
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
      | Ok sections ->
          let names = List.map (fun s -> s.Ckpt.Codec.name) sections in
          List.iter
            (fun required ->
              Alcotest.(check bool)
                (Printf.sprintf "section %s listed" required)
                true (List.mem required names))
            [ "meta"; "config"; "scheduler"; "network" ])

let () =
  Alcotest.run "ckpt"
    [
      ( "codec",
        [
          Alcotest.test_case "primitives round-trip" `Quick
            test_primitive_round_trip;
          Alcotest.test_case "i64/pair round-trip" `Quick
            test_i64_and_pair_round_trip;
          Alcotest.test_case "parse_payload trailing bytes" `Quick
            test_parse_payload_trailing_bytes;
          Alcotest.test_case "container round-trip" `Quick
            test_container_round_trip;
          Alcotest.test_case "truncation -> typed error" `Quick
            test_truncation_never_raises;
          Alcotest.test_case "corruption detected per section" `Quick
            test_corruption_detected_per_section;
          Alcotest.test_case "file save/load errors" `Quick test_load_file_errors;
          Alcotest.test_case "crc32 check value" `Quick test_crc32_check_value;
          Alcotest.test_case "crc32 every length to 64" `Quick
            test_crc32_every_short_length;
          QCheck_alcotest.to_alcotest prop_crc32_matches_bytewise;
          Alcotest.test_case "failed save leaves no tmp" `Quick
            test_save_failure_removes_tmp;
          Alcotest.test_case "short int64 -> Parse" `Quick
            test_short_i64_is_parse_error;
          Alcotest.test_case "cut mid-section -> Truncated" `Quick
            test_cut_mid_section_truncated;
        ] );
      ( "state round-trips",
        [
          QCheck_alcotest.to_alcotest prop_scoreboard_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_link_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_scheduler_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_scheduler_restore_preserves_order;
          Alcotest.test_case "heap capture/restore" `Quick
            test_heap_capture_restore;
        ] );
      ( "faults",
        [
          Alcotest.test_case "injector capture/restore" `Quick
            test_injector_capture_restore;
          Alcotest.test_case "injector codec round-trip" `Quick
            test_injector_codec_round_trip;
        ] );
      ( "journal",
        [
          Alcotest.test_case "save/load/diff" `Quick test_journal_save_load_diff;
          Alcotest.test_case "entries bit-exact" `Quick
            test_journal_entries_bit_exact;
        ] );
      ( "manager",
        [
          Alcotest.test_case "interval boundaries" `Quick
            test_manager_boundaries;
        ] );
      ( "end-to-end",
        [
          Alcotest.test_case "save/load/resume equivalent" `Slow
            test_save_load_resume_equivalent;
          Alcotest.test_case "checkpoint bytes golden" `Slow
            test_checkpoint_bytes_golden;
          Alcotest.test_case "rejects damaged checkpoints" `Quick
            test_restore_rejects_wrong_topology;
          Alcotest.test_case "hardened endpoint restore at T/2" `Quick
            test_hardened_endpoint_restore_at_half;
        ] );
      ( "ckpt",
        [
          Alcotest.test_case "sharing sections" `Quick
            test_sharing_ckpt_sections;
        ] );
    ]
