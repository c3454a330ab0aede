(* Model-based testing of the RLA sender.

   [Sender_model] is the sender as it stood when it kept one full SACK
   scoreboard per receiver.  Two identical star networks run side by
   side, one driven by the library sender and one by the model, and the
   same stream of events goes to both: acknowledgments with SACK holes,
   duplicates and reordering (injected at the source, with no receiver
   endpoints behind them), the passage of time (retransmission timeouts
   and per-branch retransmission expiry), membership joins and leaves,
   and checkpoint/restore of the library sender.  After every event the captured states, the snapshots and
   the packets each network carried must agree exactly.

   The table cases at the end pin the rules of section 3.3 on both
   senders: losses within 2*srtt_i group into one congestion signal,
   pthresh = 1/num_trouble, and the forced cut. *)

module M = Sender_model.Sender

type op =
  | Ack of {
      who : int;  (* index into the node pool, member or not *)
      cum : int;  (* cumulative ack, relative to the base below *)
      blocks : (int * int) list;  (* (offset, length) above the base *)
      age : int;  (* echo age in ms *)
      ece : bool;
    }
  | Advance of int  (* ms *)
  | Drop of int
  | Join of int
  | Restore
      (* the library sender only: checkpoint it and carry on in a
         fresh world restored from the checkpoint *)

let show_op = function
  | Ack { who; cum; blocks; age; ece } ->
      Printf.sprintf "ack(%d cum+%d [%s] age %d%s)" who cum
        (String.concat ";"
           (List.map (fun (o, l) -> Printf.sprintf "%d+%d" o l) blocks))
        age
        (if ece then " ece" else "")
  | Advance ms -> Printf.sprintf "advance %d ms" ms
  | Drop i -> Printf.sprintf "drop %d" i
  | Join i -> Printf.sprintf "join %d" i
  | Restore -> "restore"

(* A source, a hub and [pool] leaves; the first [n] leaves are the
   initial receivers, the rest can join later. *)
let star ~seed ~pool =
  let net = Net.Network.create ~seed () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let leaves = Array.init pool (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  let link mu delay =
    {
      Net.Link.bandwidth_bps = mu *. 8000.0;
      prop_delay = delay;
      queue = Net.Queue_disc.Droptail;
      capacity = 50;
      phase_jitter = false;
    }
  in
  ignore (Net.Network.duplex net s hub (link 10_000.0 0.005));
  Array.iter
    (fun leaf -> ignore (Net.Network.duplex net hub leaf (link 1000.0 0.02)))
    leaves;
  Net.Network.install_routes net;
  (net, s, leaves)

type 'a world = {
  net : Net.Network.t;
  src : Net.Packet.addr;
  leaves : Net.Packet.addr array;
  sender : 'a;
  log : (int * int * bool) list ref;  (* leaf, seq, rexmit; newest first *)
}

let world ~seed ~pool ~n ~params make flow =
  let net, src, leaves = star ~seed ~pool in
  let receivers = Array.to_list (Array.sub leaves 0 n) in
  let sender = make ~net ~src ~receivers ~params in
  let log = ref [] in
  Array.iter
    (fun leaf ->
      Net.Node.attach (Net.Network.node net leaf) ~flow:(flow sender)
        (fun pkt ->
          match pkt.Net.Packet.payload with
          | Rla.Wire.Rla_data { seq; rexmit; _ } -> log := (leaf, seq, rexmit) :: !log
          | _ -> ()))
    leaves;
  { net; src; leaves; sender; log }

let make_real ~net ~src ~receivers ~params =
  Rla.Sender.create ~net ~src ~receivers ~params ~endpoints:[] ()

let make_model ~net ~src ~receivers ~params =
  M.create ~net ~src ~receivers ~params ~endpoints:[] ()

(* Both worlds get the same event; [outcome] folds what the calls
   returned (or raised) into a comparable string. *)
let outcome f = match f () with b -> string_of_bool b | exception Invalid_argument m -> m

(* Acks are placed relative to [base]: the acknowledging receiver's own
   cumulative ack when it is a member, else the all-receiver frontier
   (read off the model, so both worlds get the same numbers). *)
let base_of w who =
  match M.active_slot w.sender w.leaves.(who) with
  | -1 -> M.max_reach_all w.sender
  | i ->
      Sender_model.Scoreboard.high_ack
        (Sender_model.Rcv_state.board w.sender.M.rcvrs.(i))

let apply w ~flow ~drop ~join ~base op =
  match op with
  | Ack { who; cum; blocks; age; ece } ->
      let rcvr = w.leaves.(who) in
      let now = Net.Network.now w.net in
      let echo = now -. (float_of_int age /. 1000.0) in
      let echo = if echo < 0.0 then 0.0 else echo in
      let blocks =
        List.map
          (fun (o, l) -> { Tcp.Wire.block_lo = base + o; block_hi = base + o + l })
          blocks
      in
      Net.Node.receive (Net.Network.node w.net w.src)
        (Net.Network.make_packet w.net ~flow:(flow w.sender) ~src:rcvr
           ~dst:(Net.Packet.Unicast w.src) ~size:Rla.Wire.ack_size
           ~payload:
             (Rla.Wire.Rla_ack { rcvr; cum_ack = base + cum; blocks; echo; ece }));
      "ack"
  | Advance ms ->
      Net.Network.run_until w.net (Net.Network.now w.net +. (float_of_int ms /. 1000.0));
      "advance"
  | Drop i -> outcome (fun () -> drop w.sender w.leaves.(i))
  | Join i -> outcome (fun () -> join w.sender w.leaves.(i))
  | Restore -> "restore"

let apply_real w =
  apply w ~flow:Rla.Sender.flow ~drop:Rla.Sender.drop_receiver ~join:Rla.Sender.add_receiver

let apply_model w =
  apply w ~flow:M.flow ~drop:M.drop_receiver
    ~join:M.add_receiver

(* The first captured field on which the two senders disagree. *)
let state_diff (a : Rla.Sender.state) (b : Rla.Sender.state) =
  let same x y = compare x y = 0 in
  let fields =
    Rla.Sender.
      [
        ("rcvrs", same a.s_rcvrs b.s_rcvrs);
        ("n_active", same a.s_n_active b.s_n_active);
        ("cwnd", same a.s_cwnd b.s_cwnd);
        ("ssthresh", same a.s_ssthresh b.s_ssthresh);
        ("next_seq", same a.s_next_seq b.s_next_seq);
        ("mra", same a.s_mra b.s_mra);
        ("coverage", same a.s_coverage b.s_coverage);
        ("pending", same a.s_pending b.s_pending);
        ("rexmit_queue", same a.s_rexmit_queue b.s_rexmit_queue);
        ("queued", same a.s_queued b.s_queued);
        ("timer", same a.s_timer b.s_timer);
        ("num_trouble", same a.s_num_trouble b.s_num_trouble);
        ("window_cuts", same a.s_window_cuts b.s_window_cuts);
        ("forced_cuts", same a.s_forced_cuts b.s_forced_cuts);
        ("timeouts", same a.s_timeouts b.s_timeouts);
        ("signals", same a.s_signals b.s_signals);
        ("rexmits", same (a.s_rexmits_multicast, a.s_rexmits_unicast)
                       (b.s_rexmits_multicast, b.s_rexmits_unicast));
        ("whole state", same a b);
      ]
  in
  List.find_map (fun (name, ok) -> if ok then None else Some name) fields

let pp_rcvr_diff (a : Rla.Sender.state) (b : Rla.Sender.state) =
  let show (r : Rla.Rcv_state.state) =
    let sb = r.Rla.Rcv_state.s_board in
    Printf.sprintf "ha=%d ns=%d hs=%d s=%d l=%d x=%d lf=%d [%s]"
      sb.Tcp.Scoreboard.s_high_ack sb.s_next_seq sb.s_highest_sacked sb.s_sacked_cnt
      sb.s_lost_cnt sb.s_rexmit_out sb.s_loss_floor
      (String.concat " "
         (List.map
            (fun (e : Tcp.Scoreboard.entry_state) ->
              Printf.sprintf "%d%s%s%s@%g" e.e_seq
                (if e.e_sacked then "s" else "")
                (if e.e_lost then "l" else "")
                (if e.e_rexmitted then "x" else "")
                e.e_rexmit_time)
            sb.s_entries))
  in
  List.iteri
    (fun i (x, y) ->
      if compare x y <> 0 then
        Printf.printf "  slot %d\n    real  %s\n    model %s\n" i (show x) (show y))
    (List.combine a.Rla.Sender.s_rcvrs b.Rla.Sender.s_rcvrs)

(* A fresh world restored from [w]'s checkpoint.  Restore needs the
   same membership history, so after a join [w] carries on as is. *)
let restored ~seed ~pool ~n ~params w =
  let st = Rla.Sender.capture w.sender in
  if List.length st.Rla.Sender.s_rcvrs <> n || st.s_endpoints <> [] then w
  else begin
    let w' = world ~seed ~pool ~n ~params make_real Rla.Sender.flow in
    Sim.Scheduler.restore
      (Net.Network.scheduler w'.net)
      (Sim.Scheduler.capture (Net.Network.scheduler w.net));
    Net.Network.restore w'.net (Net.Network.capture w.net);
    Rla.Sender.restore w'.sender st;
    w'.log := !(w.log);
    w'
  end

(* Replays [ops] on both worlds; [Error] names the first divergence. *)
let replay ?(params = Rla.Params.default) ~seed ~n ~pool ops =
  let real = ref (world ~seed ~pool ~n ~params make_real Rla.Sender.flow) in
  let model = world ~seed ~pool ~n ~params make_model M.flow in
  let rec go k = function
    | [] -> Ok (!real, model)
    | op :: rest -> (
        let base = match op with Ack { who; _ } -> base_of model who | _ -> 0 in
        let r1 = apply_real !real ~base op and r2 = apply_model model ~base op in
        if op = Restore then real := restored ~seed ~pool ~n ~params !real;
        let real = !real in
        let a = Rla.Sender.capture real.sender and b = M.capture model.sender in
        let fail what =
          pp_rcvr_diff a b;
          Error (Printf.sprintf "event %d (%s): %s differs" k (show_op op) what)
        in
        if r1 <> r2 then fail (Printf.sprintf "outcome (%s vs %s)" r1 r2)
        else
          match state_diff a b with
          | Some field -> fail ("captured " ^ field)
          | None ->
              if compare (Rla.Sender.snapshot real.sender) (M.snapshot model.sender) <> 0
              then fail "snapshot"
              else if Rla.Sender.cwnd real.sender <> M.cwnd model.sender then fail "cwnd"
              else if
                Rla.Sender.max_reach_all real.sender <> M.max_reach_all model.sender
              then fail "mra"
              else if !(real.log) <> !(model.log) then fail "packets carried"
              else if
                Rla.Sender.For_testing.num_trouble_rcvr real.sender
                <> M.num_trouble_rcvr model.sender
              then fail "num_trouble"
              else go (k + 1) rest)
  in
  go 0 ops

let gen_ops ~pool =
  let open QCheck.Gen in
  let ack =
    map
      (fun (who, cum, blocks, age, ece) -> Ack { who; cum; blocks; age; ece })
      (tup5 (int_bound (pool - 1)) (int_range (-2) 10)
         (list_size (int_bound 3) (pair (int_bound 14) (int_range 1 4)))
         (int_range 1 150)
         (frequency [ (9, return false); (1, return true) ]))
  in
  list_size (int_range 20 160)
    (frequency
       [
         (12, ack);
         (5, map (fun ms -> Advance ms) (int_range 1 300));
         (1, map (fun ms -> Advance ms) (int_range 500 3000));
         (1, map (fun i -> Drop i) (int_bound (pool - 1)));
         (1, map (fun i -> Join i) (int_bound (pool - 1)));
         (1, return Restore);
       ])

let prop_agrees ~n ~count =
  let pool = n + 2 in
  QCheck.Test.make ~count
    ~name:(Printf.sprintf "sender agrees with the model at n=%d" n)
    (QCheck.make
       ~print:(fun (seed, ops) ->
         Printf.sprintf "seed %d: %s" seed (String.concat ", " (List.map show_op ops)))
       QCheck.Gen.(pair (int_bound 1000) (gen_ops ~pool)))
    (fun (seed, ops) ->
      match replay ~seed ~n ~pool (Advance 150 :: ops) with
      | Ok _ -> true
      | Error m -> QCheck.Test.fail_report m)

(* The generalized sender (rtt scaling, dynamic trouble counting) and a
   multicast threshold above one exercise the other arms. *)
let prop_agrees_generalized =
  let n = 5 in
  let pool = n + 2 in
  let params =
    {
      (Rla.Params.generalized Rla.Params.default) with
      Rla.Params.trouble_counting = Rla.Params.Dynamic;
      rexmit_thresh = 2;
    }
  in
  QCheck.Test.make ~count:150
    ~name:"generalized sender agrees with the model at n=5"
    (QCheck.make QCheck.Gen.(pair (int_bound 1000) (gen_ops ~pool)))
    (fun (seed, ops) ->
      match replay ~params ~seed ~n ~pool (Advance 150 :: ops) with
      | Ok _ -> true
      | Error m -> QCheck.Test.fail_report m)

(* --- section 3.3 rules, as tables ---------------------------------- *)

let ack ?(blocks = []) ?(age = 100) ?(ece = false) who cum =
  Ack { who; cum; blocks; age; ece }

(* Let the window open: every receiver acknowledges everything sent,
   [rounds] times, 60 ms apart. *)
let grow ~n rounds =
  List.concat
    (List.init rounds (fun _ ->
         Advance 60 :: List.init n (fun who -> ack who 40)))

let run_script ?params ~n script =
  match replay ?params ~seed:5 ~n ~pool:(n + 2) script with
  | Ok (real, _) -> real.sender
  | Error m -> Alcotest.fail m

(* Losses on one branch within 2*srtt_i of the first are one signal; a
   receiver's first losses always open a period. *)
let test_loss_grouping () =
  let hole who gap = ack ~blocks:[ (1 + gap, 4) ] who 0 in
  let cases =
    [
      ("one hole is one signal", [ hole 0 0 ], 1);
      ("second hole at once is grouped", [ hole 0 0; hole 0 5 ], 1);
      ( "second hole after 2*srtt is a new signal",
        [ hole 0 0; Advance 400; hole 0 5 ],
        2 );
      ("holes on two branches are two signals", [ hole 0 0; hole 1 0 ], 2);
    ]
  in
  List.iter
    (fun (name, script, expected) ->
      let s = run_script ~n:3 (Advance 150 :: grow ~n:3 6 @ script) in
      Alcotest.(check int) name expected (Rla.Sender.congestion_signals s))
    cases

(* pthresh = 1/num_trouble: with every receiver counted it is 1/n
   once the first signal has recounted it; with dynamic counting it is 1 over the
   receivers that signal about as often as the most troubled one. *)
let test_pthresh () =
  let counting c = { Rla.Params.default with Rla.Params.trouble_counting = c } in
  let all = counting Rla.Params.All_receivers
  and dynamic = counting Rla.Params.Dynamic in
  let hole who = ack ~blocks:[ (2, 4) ] who 0 in
  let cases =
    [
      ("every receiver counted, before any signal", all, [], 1.0);
      ("every receiver counted, one signal", all, [ hole 0 ], 0.25);
      ("dynamic, one troubled", dynamic, [ hole 0 ], 1.0);
      ("dynamic, two troubled", dynamic, [ hole 0; hole 1 ], 0.5);
      ("dynamic, three troubled", dynamic, [ hole 0; hole 1; hole 2 ], 1.0 /. 3.0);
    ]
  in
  List.iter
    (fun (name, params, script, expected) ->
      let s = run_script ~params ~n:4 (Advance 150 :: grow ~n:4 6 @ script) in
      Alcotest.(check (float 1e-9)) name expected
        (Rla.Sender.For_testing.pthresh_for s (List.hd (Rla.Sender.active_receivers s))))
    cases

(* A signal long after the last cut is always cut for (the forced cut);
   one right after a cut faces only the pthresh coin. *)
let test_forced_cut () =
  let hole who gap = ack ~blocks:[ (1 + gap, 4) ] who 0 in
  let cases =
    [
      ("first signal after a quiet start is forced", [ hole 0 0 ], 1, 1);
      ( "a second signal soon after is not forced",
        [ hole 0 0; Advance 400; hole 0 6 ],
        1,
        2 );
      ( "a second signal after a long quiet spell is forced",
        [ hole 0 0 ] @ grow ~n:2 200 @ [ hole 0 0 ],
        2,
        2 );
    ]
  in
  List.iter
    (fun (name, script, forced, signals) ->
      let s = run_script ~n:2 (Advance 150 :: grow ~n:2 6 @ script) in
      Alcotest.(check (pair int int)) name (forced, signals)
        (Rla.Sender.forced_cuts s, Rla.Sender.congestion_signals s))
    cases

let () =
  Alcotest.run "sender-model"
    [
      ( "model",
        List.map QCheck_alcotest.to_alcotest
          [
            prop_agrees ~n:1 ~count:200;
            prop_agrees ~n:2 ~count:200;
            prop_agrees ~n:5 ~count:150;
            prop_agrees ~n:30 ~count:60;
            prop_agrees_generalized;
          ] );
      ( "section 3.3",
        [
          Alcotest.test_case "loss grouping within 2 srtt" `Quick test_loss_grouping;
          Alcotest.test_case "pthresh is 1/num_trouble" `Quick test_pthresh;
          Alcotest.test_case "forced cut" `Quick test_forced_cut;
        ] );
    ]
