(* Checkpoint subsystem tests: codecs and container robustness
   (truncation, corruption, overlong lengths), qcheck round-trips over
   randomized component states, the scheduler re-arm protocol, journal
   save/load/diff, and a fast end-to-end save -> load -> resume
   equivalence check (the slow byte-identity variant lives in
   test_integration.ml). *)

let tmp_file suffix =
  Filename.temp_file "rla_ckpt_test" suffix

(* --- codecs ----------------------------------------------------------- *)

(* Encode [v] as a section and decode it back. *)
let round_trip c v = Ckpt.Codec.read c (Ckpt.Codec.section "x" c v)

let decoded c v =
  match round_trip c v with
  | Ok v -> v
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)

let test_primitive_round_trip () =
  let int_back = decoded Ckpt.Codec.int
  and f64_back = decoded Ckpt.Codec.f64 in
  Alcotest.(check int) "int" 42 (int_back 42);
  Alcotest.(check int) "negative int" (-7) (int_back (-7));
  Alcotest.(check (float 0.0)) "float" 3.25 (f64_back 3.25);
  Alcotest.(check bool) "negative zero bits" true
    (Int64.equal (Int64.bits_of_float (f64_back (-0.0)))
       (Int64.bits_of_float (-0.0)));
  Alcotest.(check bool) "infinity" true
    (Float.equal (f64_back infinity) infinity);
  Alcotest.(check bool) "nan round-trips" true (Float.is_nan (f64_back nan));
  Alcotest.(check bool) "bool" true (decoded Ckpt.Codec.bool true);
  Alcotest.(check string) "string with NUL" "hello\x00world"
    (decoded Ckpt.Codec.string "hello\x00world");
  let opt = Ckpt.Codec.option Ckpt.Codec.int in
  Alcotest.(check bool) "none" true (decoded opt None = None);
  Alcotest.(check bool) "some" true (decoded opt (Some 9) = Some 9);
  Alcotest.(check (list int)) "list" [ 1; 2; 3 ]
    (decoded (Ckpt.Codec.list Ckpt.Codec.int) [ 1; 2; 3 ]);
  Alcotest.(check (array (float 0.0))) "float array" [| 1.5; -0.25; 1e300 |]
    (decoded Ckpt.Codec.floats [| 1.5; -0.25; 1e300 |])

let test_i64_and_pair_round_trip () =
  let i64_back = decoded Ckpt.Codec.i64 in
  Alcotest.(check int64) "i64" 0x0123456789ABCDEFL
    (i64_back 0x0123456789ABCDEFL);
  Alcotest.(check int64) "negative i64" (-1L) (i64_back (-1L));
  let i, f = decoded Ckpt.Codec.(pair int f64) (42, 1.5) in
  Alcotest.(check int) "pair fst" 42 i;
  Alcotest.(check (float 0.0)) "pair snd" 1.5 f

let test_parse_payload_trailing_bytes () =
  let section = Ckpt.Codec.(section "x" (pair int int)) (7, 9) in
  (match Ckpt.Codec.read Ckpt.Codec.int section with
  | Error (Ckpt.Codec.Malformed _) -> ()
  | Ok _ -> Alcotest.fail "trailing bytes accepted"
  | Error e -> Alcotest.failf "wrong error %s" (Ckpt.Codec.error_to_string e));
  match Ckpt.Codec.(read (pair int int)) section with
  | Ok (7, 9) -> ()
  | Ok _ -> Alcotest.fail "wrong payload decoded"
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)

let sections_fixture =
  [
    Ckpt.Codec.section "alpha" Ckpt.Codec.string "some payload bytes";
    Ckpt.Codec.section "beta" Ckpt.Codec.string "";
    Ckpt.Codec.section "gamma" Ckpt.Codec.string (String.init 256 Char.chr);
  ]

let with_tmp_file suffix f =
  let path = tmp_file suffix in
  Fun.protect ~finally:(fun () -> Sys.remove path) (fun () -> f path)

(* The bytes [save_file] writes for [sections]. *)
let file_bytes sections =
  with_tmp_file ".ckpt" (fun path ->
      Ckpt.Codec.save_file ~path sections;
      In_channel.with_open_bin path In_channel.input_all)

(* [load_file] over a file holding exactly [bytes]. *)
let load_bytes bytes =
  with_tmp_file ".ckpt" (fun path ->
      Out_channel.with_open_bin path (fun oc ->
          Out_channel.output_string oc bytes);
      Ckpt.Codec.load_file ~path)

let test_container_round_trip () =
  match load_bytes (file_bytes sections_fixture) with
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
  | Ok sections ->
      Alcotest.(check int) "section count" 3 (List.length sections);
      List.iter2
        (fun a b ->
          Alcotest.(check string) "name" (Ckpt.Codec.name a) (Ckpt.Codec.name b);
          Alcotest.(check string) "payload" (Ckpt.Codec.payload a)
            (Ckpt.Codec.payload b))
        sections_fixture sections

let test_truncation_never_raises () =
  (* Every proper prefix of a valid file must load as a typed error,
     never an exception. *)
  let encoded = file_bytes sections_fixture in
  for len = 0 to String.length encoded - 1 do
    match load_bytes (String.sub encoded 0 len) with
    | Ok _ -> Alcotest.failf "prefix of %d bytes decoded successfully" len
    | Error (Ckpt.Codec.Truncated | Ckpt.Codec.Bad_magic) -> ()
    | Error e ->
        Alcotest.failf "prefix of %d bytes: unexpected %s" len
          (Ckpt.Codec.error_to_string e)
  done

let test_corruption_detected_per_section () =
  let encoded = file_bytes sections_fixture in
  (* Flip a byte inside the last section's payload: the CRC must name
     that section. *)
  let target = "gamma" in
  let idx =
    (* The 256-byte payload is unique; find one of its bytes. *)
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
  (match load_bytes (Bytes.to_string corrupted) with
  | Error (Ckpt.Codec.Crc_mismatch name) ->
      Alcotest.(check string) "names the bad section" target name
  | Ok _ -> Alcotest.fail "corruption went undetected"
  | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e));
  (* Bad magic. *)
  let bad_magic = Bytes.of_string encoded in
  Bytes.set bad_magic 0 'X';
  (match load_bytes (Bytes.to_string bad_magic) with
  | Error Ckpt.Codec.Bad_magic -> ()
  | _ -> Alcotest.fail "bad magic undetected");
  (* Future version. *)
  let bad_version = Bytes.of_string encoded in
  Bytes.set bad_version 15 '\x63';
  match load_bytes (Bytes.to_string bad_version) with
  | Error (Ckpt.Codec.Bad_version 99) -> ()
  | _ -> Alcotest.fail "version mismatch undetected"

(* The header carries no CRC: a section's name-length or payload-length
   word set near [max_int] must point past the end of the file, not wrap
   around the bounds check. *)
let test_overlong_header_lengths () =
  let encoded = file_bytes sections_fixture in
  (* First section: name length at 24, name "alpha" at 32, payload
     length at 37. *)
  List.iter
    (fun (what, offset, word) ->
      let b = Bytes.of_string encoded in
      Bytes.set_int64_be b offset word;
      match load_bytes (Bytes.to_string b) with
      | Error Ckpt.Codec.Truncated -> ()
      | Ok _ -> Alcotest.failf "%s: damaged file loaded" what
      | Error e ->
          Alcotest.failf "%s: unexpected %s" what (Ckpt.Codec.error_to_string e))
    [
      ("name length", 24, Int64.of_int max_int);
      ("name length", 24, Int64.of_int (max_int - 20));
      ("payload length", 37, Int64.of_int max_int);
      ("payload length", 37, Int64.of_int (max_int - 20));
    ]

(* A payload whose CRC is valid but whose float-array count is far
   beyond its bytes is refused before anything is allocated. *)
let test_registry_array_count_refused () =
  let payload =
    (* No counters, no gauges, one series named "s" with limit 0 whose
       [s_times] claims 2^50 floats, of which two follow. *)
    Ckpt.Codec.(
      pair (pair int int)
        (pair (pair int string) (pair int (pair int (pair f64 f64)))))
  in
  let section =
    Ckpt.Codec.section "registry" payload
      ((0, 0), ((1, "s"), (0, (1 lsl 50, (1.0, 2.0)))))
  in
  match load_bytes (file_bytes [ section ]) with
  | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
  | Ok [ section ] -> (
      match Ckpt.Codec.read Ckpt.State.registry section with
      | Error (Ckpt.Codec.Malformed _) -> ()
      | Ok _ -> Alcotest.fail "2^50 floats decoded"
      | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e))
  | Ok _ -> Alcotest.fail "expected one section"

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
let with_occupied_dir f =
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
      (match f dir with
      | () -> Alcotest.fail "saved onto a non-empty directory"
      | exception Sys_error _ -> ());
      Alcotest.(check bool)
        "no .tmp left" false
        (Sys.file_exists (dir ^ ".tmp"));
      Alcotest.(check (list string)) "directory untouched" [ "occupied" ]
        (Array.to_list (Sys.readdir dir)))

let test_save_failure_removes_tmp () =
  with_occupied_dir (fun path -> Ckpt.Codec.save_file ~path sections_fixture)

let test_short_i64_is_parse_error () =
  (* One byte where eight are needed. *)
  match
    Ckpt.Codec.read Ckpt.Codec.i64 (Ckpt.Codec.section "x" Ckpt.Codec.bool true)
  with
  | Error (Ckpt.Codec.Malformed msg) ->
      Alcotest.(check string) "message"
        "section \"x\": unexpected end of input" msg
  | Ok _ -> Alcotest.fail "1 byte read as an int64"
  | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e)

let test_cut_mid_section_truncated () =
  let encoded = file_bytes sections_fixture in
  (* Halfway into the last section's 256-byte payload. *)
  let cut = String.length encoded - 128 in
  match load_bytes (String.sub encoded 0 cut) with
  | Error Ckpt.Codec.Truncated -> ()
  | Ok _ -> Alcotest.fail "cut file decoded"
  | Error e -> Alcotest.failf "unexpected %s" (Ckpt.Codec.error_to_string e)

let test_load_file_errors () =
  (match Ckpt.Codec.load_file ~path:"/nonexistent/rla.ckpt" with
  | Error (Ckpt.Codec.Malformed _) -> ()
  | _ -> Alcotest.fail "missing file should be Malformed with the OS message");
  with_tmp_file ".ckpt" (fun path ->
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
      round_trip Ckpt.State.tcp_sender st_wrapped = Ok st_wrapped)

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
      let net =
        {
          Net.Network.s_root_rng = 77L;
          s_next_flow = 3;
          s_next_group = 1;
          s_next_uid = 999;
          s_nodes = [ 0; 0; 1 ];
          s_links = [ st ];
        }
      in
      round_trip Ckpt.State.network net = Ok net)

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
    gen_scheduler_state (fun st -> round_trip Ckpt.State.scheduler st = Ok st)

(* Small random pieces shared by the generators below.  Floats stay
   finite and non-NaN so structural equality is the round-trip check. *)
let g_float = QCheck.Gen.float_range (-1e6) 1e6

let g_ints = QCheck.Gen.(list_size (int_bound 6) (int_bound 1000))

let g_event = QCheck.Gen.(opt (int_bound 100_000))

let g_ewma =
  QCheck.Gen.(
    let* s_avg = g_float in
    let* s_samples = int_bound 500 in
    return { Stats.Ewma.s_avg; s_samples })

let g_welford =
  QCheck.Gen.(
    let* s_n = int_bound 500 in
    let* s_mean = g_float in
    let* s_m2 = g_float in
    let* s_min = g_float in
    let* s_max = g_float in
    return { Stats.Welford.s_n; s_mean; s_m2; s_min; s_max })

let g_time_avg =
  QCheck.Gen.(
    let* s_start = g_float in
    let* s_last_time = g_float in
    let* s_last_value = g_float in
    let* s_weighted_sum = g_float in
    return { Stats.Time_avg.s_start; s_last_time; s_last_value; s_weighted_sum })

let g_rcv_state =
  QCheck.Gen.(
    let* s_board = QCheck.gen gen_scoreboard_state in
    let* s_srtt = g_ewma in
    let* s_interval = g_ewma in
    let* s_cperiod_start = g_float in
    let* s_last_signal = g_float in
    let* s_signals = int_bound 100 in
    let* s_acks = int_bound 1000 in
    let* s_active = bool in
    return
      {
        Rla.Rcv_state.s_board;
        s_srtt;
        s_interval;
        s_cperiod_start;
        s_last_signal;
        s_signals;
        s_acks;
        s_active;
      })

let g_rla_receiver =
  QCheck.Gen.(
    let* s_rng = ui64 in
    let* s_ooo = g_ints in
    let* s_recent = g_ints in
    let* s_expected = int_bound 1000 in
    let* s_received_total = int_bound 1000 in
    let* s_duplicates = int_bound 50 in
    let* s_rexmits_received = int_bound 50 in
    let* s_pending_acks =
      list_size (int_bound 4) (triple (int_bound 1000) g_float bool)
    in
    return
      {
        Rla.Receiver.s_rng;
        s_ooo;
        s_recent;
        s_expected;
        s_received_total;
        s_duplicates;
        s_rexmits_received;
        s_pending_acks;
      })

let gen_rla_sender_state =
  QCheck.make
    QCheck.Gen.(
      let* s_rcvrs = list_size (int_bound 4) g_rcv_state in
      let* s_endpoints = list_size (int_bound 4) g_rla_receiver in
      let* s_rng = ui64 in
      let* s_srtt = g_float in
      let* s_cwnd = g_float in
      let* s_ssthresh = g_float in
      let* s_awnd = g_ewma in
      let* s_last_window_cut = g_float in
      let* s_next_seq = int_bound 5000 in
      let* s_mra = int_bound 5000 in
      let* s_coverage =
        list_size (int_bound 6)
          (let* c_seq = int_bound 5000 in
           let* c_covered = int_bound 27 in
           let* c_rexmitted = bool in
           let* c_sent_at = g_float in
           return { Rla.Sender.c_seq; c_covered; c_rexmitted; c_sent_at })
      in
      let* s_pending = g_ints in
      let* s_rexmit_queue =
        list_size (int_bound 4)
          (pair (int_bound 5000)
             (oneof
                [
                  return Rla.Sender.To_group;
                  map (fun l -> Rla.Sender.To_receivers l) g_ints;
                ]))
      in
      let* s_queued = g_ints in
      let* s_timer = g_event in
      let* s_start_event = g_event in
      let* c = int_bound 10_000 in
      let* s_cwnd_avg = g_time_avg in
      let* s_rtt = g_welford in
      let* s_rtt_acks = g_welford in
      let* s_meas_time = g_float in
      let* s_meas_signals_per = g_ints in
      return
        {
          Rla.Sender.s_rcvrs;
          s_n_active = List.length s_rcvrs;
          s_endpoints;
          s_rng;
          s_rto = { Tcp.Rto.s_srtt; s_rttvar = 0.05; s_shift = 1; s_samples = 4 };
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
          s_num_trouble = c + 1;
          s_window_cuts = c + 2;
          s_forced_cuts = c + 3;
          s_timeouts = c + 4;
          s_signals = c + 5;
          s_rexmits_multicast = c + 6;
          s_rexmits_unicast = c + 7;
          s_sent_new = c + 8;
          s_cwnd_avg;
          s_rtt;
          s_rtt_acks;
          s_meas_time;
          s_meas_mra = c + 9;
          s_meas_signals = c + 10;
          s_meas_cuts = c + 11;
          s_meas_forced = c + 12;
          s_meas_timeouts = c + 13;
          s_meas_rexmits = c + 14;
          s_meas_sent_new = c + 15;
          s_meas_signals_per;
        })

let prop_rla_sender_codec_round_trip =
  QCheck.Test.make ~name:"rla sender state codec round-trips" ~count:200
    gen_rla_sender_state (fun st -> round_trip Ckpt.State.rla_sender st = Ok st)

let gen_registry_state =
  QCheck.make
    QCheck.Gen.(
      let g_name = string_size ~gen:printable (int_bound 12) in
      let g_floats = array_size (int_bound 50) g_float in
      let* s_counters =
        list_size (int_bound 5) (pair g_name (int_bound 1_000_000))
      in
      let* s_gauges = list_size (int_bound 5) (pair g_name g_float) in
      let* s_series =
        list_size (int_bound 4)
          (let* name = g_name in
           let* limit = int_bound 10_000 in
           let* s_times = g_floats in
           let* s_values = g_floats in
           let* s_stride = int_range 1 8 in
           let* s_skip = int_bound 8 in
           let* s_offered = int_bound 100_000 in
           return
             ( name,
               limit,
               { Obs.Series.s_times; s_values; s_stride; s_skip; s_offered } ))
      in
      return { Obs.Registry.s_counters; s_gauges; s_series })

let prop_registry_codec_round_trip =
  QCheck.Test.make ~name:"registry state codec round-trips" ~count:200
    gen_registry_state (fun st -> round_trip Ckpt.State.registry st = Ok st)

let gen_sharing_config =
  QCheck.make
    QCheck.Gen.(
      let* gateway =
        oneofl [ Experiments.Scenario.Droptail; Experiments.Scenario.Red ]
      in
      let* k = int_range 1 27 in
      let* case =
        oneofl
          Experiments.Tree.
            [ L1_bottleneck; L2_all; L3_all; L4_all; L4_first k; L2_single ]
      in
      let* duration = float_range 1.0 3000.0 in
      let* seed = int_bound 1_000_000 in
      let* eta = g_float in
      let* power = g_float in
      let* rtt_scaling =
        oneofl [ Rla.Params.Equal_rtt; Rla.Params.Rtt_power power ]
      in
      let* trouble_counting =
        oneofl [ Rla.Params.Dynamic; Rla.Params.All_receivers ]
      in
      let* dupthresh = int_range 1 10 in
      let* share = g_float in
      let* phase_jitter = opt bool in
      let* ecn = bool in
      let base = Experiments.Sharing.default_config ~gateway ~case in
      return
        {
          base with
          Experiments.Sharing.duration;
          warmup = duration /. 3.0;
          seed;
          rla_params =
            {
              base.Experiments.Sharing.rla_params with
              Rla.Params.eta;
              rtt_scaling;
              trouble_counting;
              dupthresh;
            };
          share;
          phase_jitter;
          ecn;
        })

let prop_sharing_config_codec_round_trip =
  QCheck.Test.make ~name:"sharing config codec round-trips" ~count:200
    gen_sharing_config (fun c -> round_trip Ckpt.State.sharing_config c = Ok c)

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
  (* The scheduler's restore path: re-insert under the captured
     counters, then carry the internal counter. *)
  let h2 : int Sim.Heap.t = Sim.Heap.create () in
  List.iter
    (fun (prio, seq, v) -> Sim.Heap.add_with_seq h2 ~prio ~seq v)
    entries;
  Sim.Heap.set_next_seq h2 4;
  Sim.Heap.add h1 ~prio:1.0 12;
  Sim.Heap.add h2 ~prio:1.0 12;
  let drain h =
    let rec go acc =
      if Sim.Heap.is_empty h then List.rev acc
      else go (Sim.Heap.pop_top h :: acc)
    in
    go []
  in
  Alcotest.(check (list int)) "same drain order" (drain h1) (drain h2)

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
  let e = { Ckpt.Journal.time = 1.0; source = "t"; event = "e"; value = 0.5 } in
  let journal values =
    let j = Ckpt.Journal.create () in
    List.iter (fun value -> Ckpt.Journal.record j { e with value }) values;
    j
  in
  Alcotest.(check (list (float 0.0))) "recording order preserved"
    [ 0.5; -0.0; nan ]
    (List.map
       (fun e -> if Float.is_nan e.Ckpt.Journal.value then nan else e.value)
       (Ckpt.Journal.entries (journal [ 0.5; -0.0; nan ])));
  Alcotest.(check bool) "identical NaN payloads compare equal" true
    (Ckpt.Journal.diff (journal [ 0.5; nan ]) (journal [ 0.5; nan ]) = None);
  match Ckpt.Journal.diff (journal [ 0.5; -0.0 ]) (journal [ 0.5; 0.0 ]) with
  | Some { Ckpt.Journal.index = 1; _ } -> ()
  | _ -> Alcotest.fail "-0. and 0. are distinct payloads"

(* Like [Codec.save_file]: a failed journal save raises and leaves no
   [.tmp] file behind. *)
let test_journal_save_failure_removes_tmp () =
  let j = Ckpt.Journal.create () in
  Ckpt.Journal.record j
    { Ckpt.Journal.time = 1.0; source = "t"; event = "e"; value = 0.5 };
  with_occupied_dir (fun path -> Ckpt.Journal.save j ~path)

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
  (* One file per 8 s boundary, named <prefix>_t<time as %010.3f>.ckpt. *)
  let files = Sys.readdir dir in
  Array.sort String.compare files;
  Alcotest.(check (array string)) "checkpoints written"
    [| "t_t000008.000.ckpt"; "t_t000016.000.ckpt"; "t_t000024.000.ckpt" |]
    files;
  let ckpt_t16 = Filename.concat dir "t_t000016.000.ckpt" in
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
   the codec moved to whole-word I/O.  Loading the file and saving its
   sections again gives the same bytes. *)
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
      match Ckpt.Codec.load_file ~path with
      | Error e -> Alcotest.fail (Ckpt.Codec.error_to_string e)
      | Ok sections ->
          Alcotest.(check bool) "re-encodes byte-exactly" true
            (String.equal (file_bytes sections) bytes))

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
      (Tcp.Wire.Tcp_rst { seq = (Tcp.Receiver.capture rcv).s_expected + 4 })
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
    ((Tcp.Sender.capture tcp_ref).s_established);
  Alcotest.(check int) "wscale negotiated" 3
    ((Tcp.Sender.capture tcp_ref).s_neg_wscale);
  Alcotest.(check bool) "persist probes sent" true
    ((Tcp.Sender.capture tcp_ref).s_zero_window_probes > 0);
  Alcotest.(check int) "RST challenged" 1 (Tcp.Receiver.capture rcv_ref).s_rst_challenged;
  Alcotest.(check int) "injection ghosted" 1 ((Tcp.Receiver.capture rcv_ref).s_ghost_data);
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
          let names = List.map Ckpt.Codec.name sections in
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
          Alcotest.test_case "overlong header lengths -> Truncated" `Quick
            test_overlong_header_lengths;
          Alcotest.test_case "registry array count beyond payload -> Malformed"
            `Quick test_registry_array_count_refused;
        ] );
      ( "state round-trips",
        [
          QCheck_alcotest.to_alcotest prop_scoreboard_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_link_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_scheduler_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_rla_sender_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_registry_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_sharing_config_codec_round_trip;
          QCheck_alcotest.to_alcotest prop_scheduler_restore_preserves_order;
          Alcotest.test_case "heap capture/restore" `Quick
            test_heap_capture_restore;
        ] );
      ( "journal",
        [
          Alcotest.test_case "save/load/diff" `Quick test_journal_save_load_diff;
          Alcotest.test_case "entries bit-exact" `Quick
            test_journal_entries_bit_exact;
          Alcotest.test_case "failed journal save leaves no tmp" `Quick
            test_journal_save_failure_removes_tmp;
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
