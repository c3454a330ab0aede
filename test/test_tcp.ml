(* Tests for the TCP SACK implementation: RTO estimator, scoreboard,
   receiver SACK generation, and sender behaviour on small networks. *)

let check_float = Alcotest.(check (float 1e-9))

(* ------------------------------------------------------------------ *)
(* Rto                                                                *)
(* ------------------------------------------------------------------ *)

let test_rto_before_samples () =
  let r = Tcp.Rto.create () in
  Alcotest.(check bool) "no sample" false (((Tcp.Rto.capture r).s_samples > 0));
  check_float "conservative initial" 3.0 (Tcp.Rto.timeout r)

let test_rto_first_sample () =
  let r = Tcp.Rto.create ~min_rto:0.0 () in
  Tcp.Rto.sample r 0.5;
  check_float "srtt = first" 0.5 (Tcp.Rto.srtt r);
  check_float "rttvar = half" 0.25 ((Tcp.Rto.capture r).s_rttvar);
  check_float "timeout" 1.5 (Tcp.Rto.timeout r)

let test_rto_smoothing () =
  let r = Tcp.Rto.create ~min_rto:0.0 () in
  Tcp.Rto.sample r 1.0;
  Tcp.Rto.sample r 1.0;
  Tcp.Rto.sample r 1.0;
  check_float "stable srtt" 1.0 (Tcp.Rto.srtt r);
  Alcotest.(check bool) "rttvar shrinks" true ((Tcp.Rto.capture r).s_rttvar < 0.5)

let test_rto_min_clamp () =
  let r = Tcp.Rto.create ~min_rto:1.0 () in
  for _ = 1 to 50 do
    Tcp.Rto.sample r 0.01
  done;
  check_float "clamped to min" 1.0 (Tcp.Rto.timeout r)

let test_rto_backoff () =
  let r = Tcp.Rto.create ~min_rto:1.0 () in
  Tcp.Rto.sample r 0.1;
  Tcp.Rto.backoff r;
  check_float "doubled" 2.0 (Tcp.Rto.timeout r);
  Tcp.Rto.backoff r;
  check_float "doubled again" 4.0 (Tcp.Rto.timeout r);
  Tcp.Rto.sample r 0.1;
  check_float "sample resets backoff" 1.0 (Tcp.Rto.timeout r)

let test_rto_max_clamp () =
  let r = Tcp.Rto.create ~min_rto:1.0 ~max_rto:8.0 () in
  Tcp.Rto.sample r 0.1;
  for _ = 1 to 10 do
    Tcp.Rto.backoff r
  done;
  check_float "capped at max" 8.0 (Tcp.Rto.timeout r)

let test_rto_karn () =
  let r = Tcp.Rto.create ~min_rto:1.0 () in
  Tcp.Rto.sample r 0.1;
  Tcp.Rto.backoff r;
  Tcp.Rto.backoff r;
  check_float "backed off" 4.0 (Tcp.Rto.timeout r);
  (* Karn's algorithm: an ambiguous sample (taken over a retransmitted
     range) must neither update the estimator nor relax the backoff. *)
  Tcp.Rto.sample ~rexmitted:true r 9.0;
  check_float "srtt untouched" 0.1 (Tcp.Rto.srtt r);
  check_float "backoff kept" 4.0 (Tcp.Rto.timeout r);
  Tcp.Rto.sample ~rexmitted:false r 0.1;
  check_float "clean sample resets" 1.0 (Tcp.Rto.timeout r)

let test_rto_at_max_freezes () =
  let r = Tcp.Rto.create ~min_rto:1.0 ~max_rto:8.0 () in
  Tcp.Rto.sample r 0.1;
  Alcotest.(check bool) "not at max" false ((Tcp.Rto.timeout r >= 8.0));
  for _ = 1 to 3 do
    Tcp.Rto.backoff r
  done;
  Alcotest.(check bool) "at max" true ((Tcp.Rto.timeout r >= 8.0));
  let shift_before = (Tcp.Rto.capture r).Tcp.Rto.s_shift in
  (* The shift freezes at the ceiling: further backoffs are no-ops, so
     the exponent can never overflow however long the outage lasts. *)
  for _ = 1 to 100 do
    Tcp.Rto.backoff r
  done;
  Alcotest.(check int) "shift frozen" shift_before
    (Tcp.Rto.capture r).Tcp.Rto.s_shift;
  check_float "still capped" 8.0 (Tcp.Rto.timeout r)

let test_rto_negative_sample () =
  let r = Tcp.Rto.create () in
  Alcotest.(check bool) "negative rejected" true
    (try Tcp.Rto.sample r (-1.0); false with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Scoreboard                                                         *)
(* ------------------------------------------------------------------ *)

(* A packet's flag as the board's capture records it. *)
let flag get sb seq =
  List.exists
    (fun e -> e.Tcp.Scoreboard.e_seq = seq && get e)
    (Tcp.Scoreboard.capture sb ~next_seq:(Tcp.Scoreboard.next_seq sb)).s_entries

let is_sacked = flag (fun e -> e.e_sacked)

let is_lost = flag (fun e -> e.e_lost)

let is_rexmitted = flag (fun e -> e.e_rexmitted)

let sb_with_sends n =
  let sb = Tcp.Scoreboard.create () in
  for _ = 1 to n do
    ignore (Tcp.Scoreboard.register_send sb)
  done;
  sb

let test_sb_register () =
  let sb = Tcp.Scoreboard.create () in
  Alcotest.(check int) "seq 0" 0 (Tcp.Scoreboard.register_send sb);
  Alcotest.(check int) "seq 1" 1 (Tcp.Scoreboard.register_send sb);
  Alcotest.(check int) "next_seq" 2 (Tcp.Scoreboard.next_seq sb);
  Alcotest.(check int) "pipe counts flight" 2 (Tcp.Scoreboard.pipe sb)

let test_sb_advance_cum () =
  let sb = sb_with_sends 5 in
  Alcotest.(check int) "newly acked" 3 (Tcp.Scoreboard.For_testing.advance_cum sb 3);
  Alcotest.(check int) "high_ack" 3 (Tcp.Scoreboard.high_ack sb);
  Alcotest.(check int) "pipe" 2 (Tcp.Scoreboard.pipe sb);
  Alcotest.(check int) "stale ack ignored" 0 (Tcp.Scoreboard.For_testing.advance_cum sb 2)

let test_sb_advance_beyond_sent () =
  let sb = sb_with_sends 3 in
  Alcotest.(check int) "clamped to next_seq" 3 (Tcp.Scoreboard.For_testing.advance_cum sb 10);
  Alcotest.(check int) "pipe zero" 0 (Tcp.Scoreboard.pipe sb)

let test_sb_sack_reduces_pipe () =
  let sb = sb_with_sends 10 in
  Alcotest.(check int) "newly sacked" 3 (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:4 ~hi:7);
  Alcotest.(check int) "pipe" 7 (Tcp.Scoreboard.pipe sb);
  Alcotest.(check int) "re-sack is idempotent" 0
    (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:4 ~hi:7);
  Alcotest.(check bool) "is_sacked" true (is_sacked sb 5);
  Alcotest.(check int) "highest_sacked" 6 (Tcp.Scoreboard.For_testing.highest_sacked sb)

let test_sb_sack_below_high_ack_ignored () =
  let sb = sb_with_sends 5 in
  ignore (Tcp.Scoreboard.For_testing.advance_cum sb 3);
  Alcotest.(check int) "old range ignored" 0
    (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:0 ~hi:3)

let test_sb_loss_detection () =
  let sb = sb_with_sends 10 in
  (* SACK 4,5,6: packets 0..3 have seq+3 <= 6 -> 0,1,2,3 lost. *)
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:4 ~hi:7);
  let lost = Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3 in
  Alcotest.(check (list int)) "lost prefix" [ 0; 1; 2; 3 ] lost;
  Alcotest.(check (list int)) "no re-detection" []
    (Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3)

let test_sb_loss_needs_dupthresh () =
  let sb = sb_with_sends 10 in
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:2 ~hi:3);
  (* highest_sacked = 2; 0 is lost only if 0+3 <= 2 — not yet. *)
  Alcotest.(check (list int)) "below dupthresh" []
    (Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3);
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:3 ~hi:4);
  Alcotest.(check (list int)) "at dupthresh" [ 0 ]
    (Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3)

let test_sb_retransmit_cycle () =
  let sb = sb_with_sends 8 in
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:3 ~hi:6);
  let lost = Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3 in
  Alcotest.(check (list int)) "lost" [ 0; 1; 2 ] lost;
  let pipe_before = Tcp.Scoreboard.pipe sb in
  (match Tcp.Scoreboard.next_retransmit sb with
  | Some 0 -> Tcp.Scoreboard.mark_retransmitted sb 0
  | _ -> Alcotest.fail "expected seq 0 first");
  Alcotest.(check int) "pipe grows with rexmit" (pipe_before + 1)
    (Tcp.Scoreboard.pipe sb);
  (match Tcp.Scoreboard.next_retransmit sb with
  | Some 1 -> ()
  | _ -> Alcotest.fail "next is 1");
  (* Cumulative ack past 0 clears its state. *)
  ignore (Tcp.Scoreboard.For_testing.advance_cum sb 1);
  Tcp.Scoreboard.For_testing.check_invariants sb

let test_sb_rexmit_guards () =
  let sb = sb_with_sends 4 in
  Alcotest.(check bool) "not lost -> invalid" true
    (try Tcp.Scoreboard.mark_retransmitted sb 0; false
     with Invalid_argument _ -> true);
  ignore (Tcp.Scoreboard.For_testing.mark_lost sb 0);
  Tcp.Scoreboard.mark_retransmitted sb 0;
  Alcotest.(check bool) "double rexmit -> invalid" true
    (try Tcp.Scoreboard.mark_retransmitted sb 0; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "is_rexmitted" true (is_rexmitted sb 0)

let test_sb_sack_clears_lost () =
  let sb = sb_with_sends 6 in
  ignore (Tcp.Scoreboard.For_testing.mark_lost sb 0);
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:0 ~hi:1);
  Alcotest.(check bool) "no longer lost" false (is_lost sb 0);
  Alcotest.(check bool) "sacked" true (is_sacked sb 0);
  Alcotest.(check (option int)) "nothing to retransmit" None
    (Tcp.Scoreboard.next_retransmit sb);
  Tcp.Scoreboard.For_testing.check_invariants sb

let test_sb_mark_all_lost () =
  let sb = sb_with_sends 6 in
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:2 ~hi:3);
  ignore (Tcp.Scoreboard.For_testing.mark_lost sb 0);
  Tcp.Scoreboard.mark_retransmitted sb 0;
  let marked = Tcp.Scoreboard.mark_all_lost sb ~next_seq:(Tcp.Scoreboard.next_seq sb) in
  (* 0 was already lost, 2 is sacked: 1, 3, 4, 5 newly marked. *)
  Alcotest.(check int) "newly marked" 4 marked;
  Alcotest.(check bool) "rexmit flag cleared" false (is_rexmitted sb 0);
  Alcotest.(check (option int)) "rexmit restarts from 0" (Some 0)
    (Tcp.Scoreboard.next_retransmit sb);
  Tcp.Scoreboard.For_testing.check_invariants sb

(* The sequence numbers a reporting scoreboard call passes on, in order. *)
let reported iter =
  let seqs = ref [] in
  ignore (iter (fun seq -> seqs := seq :: !seqs));
  List.rev !seqs

let test_sb_advance_cum_seqs_fresh_only () =
  let sb = sb_with_sends 5 in
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:1 ~hi:2);
  let fresh = reported (Tcp.Scoreboard.advance_cum sb ~next_seq:5 3) in
  Alcotest.(check (list int)) "skips previously sacked" [ 0; 2 ] fresh

let test_sb_mark_sacked_seqs () =
  let sb = sb_with_sends 5 in
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:2 ~hi:3);
  let fresh = reported (Tcp.Scoreboard.sack sb ~next_seq:5 ~lo:1 ~hi:4) in
  Alcotest.(check (list int)) "only new seqs" [ 1; 3 ] fresh

let test_sb_expire_rexmits () =
  let sb = sb_with_sends 8 in
  ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo:3 ~hi:7);
  let lost = Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3 in
  Alcotest.(check (list int)) "lost" [ 0; 1; 2 ] lost;
  Tcp.Scoreboard.mark_retransmitted ~at:10.0 sb 0;
  Tcp.Scoreboard.mark_retransmitted ~at:20.0 sb 1;
  (* Only the rexmit from t=10 is stale at cutoff 15. *)
  Alcotest.(check (list int)) "stale rexmits" [ 0 ]
    (reported (fun f -> Tcp.Scoreboard.expire_rexmits sb ~next_seq:8 ~before:15.0 f));
  Alcotest.(check bool) "flag cleared" false (is_rexmitted sb 0);
  Alcotest.(check bool) "fresh one kept" true (is_rexmitted sb 1);
  (* The expired packet is eligible again. *)
  Alcotest.(check (option int)) "re-eligible" (Some 0)
    (Tcp.Scoreboard.next_retransmit sb);
  Tcp.Scoreboard.For_testing.check_invariants sb

let test_sb_expire_rexmits_empty () =
  let sb = sb_with_sends 4 in
  Alcotest.(check (list int)) "nothing to expire" []
    (reported (fun f -> Tcp.Scoreboard.expire_rexmits sb ~next_seq:4 ~before:100.0 f))

(* A board whose [next_seq] is kept outside it, as the RLA sender keeps
   its receivers' boards: sending moves the pipe without touching the
   board, and a timeout marks the window lost without a mark per
   packet. *)
let test_sb_outside_next_seq () =
  let sb = Tcp.Scoreboard.create () in
  ignore (Tcp.Scoreboard.sack sb ~next_seq:6 ~lo:2 ~hi:3 ignore);
  Alcotest.(check int) "pipe at next_seq 6" 5 (6 - Tcp.Scoreboard.accounted sb);
  Alcotest.(check int) "newly lost" 5 (Tcp.Scoreboard.mark_all_lost sb ~next_seq:6);
  Alcotest.(check (list bool)) "lost but the sacked one"
    [ true; true; false; true; true; true ]
    (List.init 6 (Tcp.Scoreboard.is_lost sb));
  Alcotest.(check int) "nothing in flight" 6 (Tcp.Scoreboard.accounted sb);
  Tcp.Scoreboard.mark_retransmitted ~at:1.5 sb 4;
  let st = Tcp.Scoreboard.capture sb ~next_seq:6 in
  Alcotest.(check (list (pair int (float 0.0)))) "entries and retransmit times"
    [ (0, 0.0); (1, 0.0); (2, 0.0); (3, 0.0); (4, 1.5); (5, 0.0) ]
    (List.map (fun e -> (e.Tcp.Scoreboard.e_seq, e.e_rexmit_time)) st.s_entries);
  Alcotest.(check bool) "counts agree" true (Tcp.Scoreboard.counts_agree sb ~next_seq:6)

let prop_sb_random_ops =
  (* Random sequences of operations never break the counter invariants
     and pipe stays non-negative. *)
  QCheck.Test.make ~name:"scoreboard invariants under random ops" ~count:100
    QCheck.(list_of_size Gen.(1 -- 200) (int_bound 5))
    (fun ops ->
      let sb = Tcp.Scoreboard.create () in
      let rng = Sim.Rng.create 9 in
      List.iter
        (fun op ->
          let span = Tcp.Scoreboard.next_seq sb - Tcp.Scoreboard.high_ack sb in
          match op with
          | 0 | 1 -> ignore (Tcp.Scoreboard.register_send sb)
          | 2 ->
              if span > 0 then
                ignore
                  (Tcp.Scoreboard.For_testing.advance_cum sb
                     (Tcp.Scoreboard.high_ack sb + 1 + Sim.Rng.int rng span))
          | 3 ->
              if span > 0 then begin
                let lo = Tcp.Scoreboard.high_ack sb + Sim.Rng.int rng span in
                ignore (Tcp.Scoreboard.For_testing.mark_sacked sb ~lo ~hi:(lo + 1 + Sim.Rng.int rng 3))
              end
          | 4 -> ignore (Tcp.Scoreboard.For_testing.detect_losses sb ~dupthresh:3)
          | _ -> (
              match Tcp.Scoreboard.next_retransmit sb with
              | Some seq -> Tcp.Scoreboard.mark_retransmitted sb seq
              | None -> ()))
        ops;
      Tcp.Scoreboard.For_testing.check_invariants sb;
      Tcp.Scoreboard.pipe sb >= 0)

(* ------------------------------------------------------------------ *)
(* Receiver + sender end-to-end on small networks                     *)
(* ------------------------------------------------------------------ *)

let droptail ~capacity ~mu_pkts ~delay =
  {
    Net.Link.bandwidth_bps = mu_pkts *. 8000.0;
    prop_delay = delay;
    queue = Net.Queue_disc.Droptail;
    capacity;
    phase_jitter = false;
  }

let build_pair ?(capacity = 20) ?(mu_pkts = 1000.0) ?(delay = 0.01) ?(seed = 1) () =
  let net = Net.Network.create ~seed () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore (Net.Network.duplex net a b (droptail ~capacity ~mu_pkts ~delay));
  Net.Network.install_routes net;
  (net, a, b)

let test_sender_delivers_in_order () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 10.0;
  let rcv = Tcp.Sender.receiver tcp in
  Alcotest.(check bool) "progress" true ((Tcp.Receiver.capture rcv).s_expected > 100);
  Alcotest.(check int) "no gaps pending" 0 (List.length (Tcp.Receiver.capture rcv).s_ooo);
  (* The sender's view lags by the acks still in flight at the cut-off. *)
  let lag = (Tcp.Receiver.capture rcv).s_expected - Tcp.Sender.delivered tcp in
  Alcotest.(check bool)
    (Printf.sprintf "delivered lags by in-flight acks only (%d)" lag)
    true
    (lag >= 0 && lag < 64)

let test_sender_slow_start_growth () =
  (* Buffer large enough that the slow-start overshoot does not drop. *)
  let net, a, b = build_pair ~mu_pkts:10_000.0 ~capacity:200 () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  (* After a few RTTs with no loss, cwnd should have grown well past 1. *)
  Net.Network.run_until net 0.5;
  Alcotest.(check bool) "cwnd grew" true (Tcp.Sender.cwnd tcp > 8.0);
  Alcotest.(check int) "no cuts yet" 0 (Tcp.Sender.window_cuts tcp)

let test_sender_recovers_from_loss () =
  (* Tiny buffer forces drops; the flow must keep making progress and
     retransmit rather than deadlock. *)
  let net, a, b = build_pair ~capacity:5 ~mu_pkts:200.0 () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 60.0;
  Alcotest.(check bool) "cuts happened" true (Tcp.Sender.window_cuts tcp > 0);
  Alcotest.(check bool) "retransmitted" true (Tcp.Sender.retransmits tcp > 0);
  Alcotest.(check bool) "still delivering" true (Tcp.Sender.delivered tcp > 5000);
  let rcv = Tcp.Sender.receiver tcp in
  let lag = (Tcp.Receiver.capture rcv).s_expected - Tcp.Sender.delivered tcp in
  Alcotest.(check bool)
    (Printf.sprintf "receiver within in-flight window (%d)" lag)
    true
    (lag >= 0 && lag < 64)

let test_sender_throughput_tracks_bottleneck () =
  let net, a, b = build_pair ~mu_pkts:100.0 () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 20.0;
  Tcp.Sender.reset_measurement tcp;
  Net.Network.run_until net 120.0;
  let snap = Tcp.Sender.snapshot tcp in
  Alcotest.(check bool)
    (Printf.sprintf "throughput %.1f near 100" snap.Tcp.Sender.throughput)
    true
    (snap.Tcp.Sender.throughput > 80.0 && snap.Tcp.Sender.throughput <= 101.0)

let test_sender_two_flows_share_fairly () =
  let net, a, b = build_pair ~mu_pkts:200.0 ~capacity:20 () in
  let t1 = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let t2 = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 20.0;
  Tcp.Sender.reset_measurement t1;
  Tcp.Sender.reset_measurement t2;
  Net.Network.run_until net 220.0;
  let s1 = (Tcp.Sender.snapshot t1).Tcp.Sender.throughput in
  let s2 = (Tcp.Sender.snapshot t2).Tcp.Sender.throughput in
  let ratio = s1 /. s2 in
  Alcotest.(check bool)
    (Printf.sprintf "ratio %.2f within 30%%" ratio)
    true
    (ratio > 0.7 && ratio < 1.43);
  Alcotest.(check bool) "combined uses the link" true (s1 +. s2 > 160.0)

let test_sender_rtt_measured () =
  let net, a, b = build_pair ~mu_pkts:10_000.0 ~delay:0.05 () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 10.0;
  let rtt = (Tcp.Sender.snapshot tcp).Tcp.Sender.rtt_avg in
  Alcotest.(check bool)
    (Printf.sprintf "rtt %.3f close to 2x prop delay" rtt)
    true
    (rtt >= 0.1 && rtt < 0.13)

let test_sender_timeout_on_dead_path () =
  (* All data packets die: the sender must back off through timeouts,
     not spin. *)
  let net = Net.Network.create ~seed:1 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore
    (Net.Network.duplex net a b
       {
         Net.Link.bandwidth_bps = 8e6;
         prop_delay = 0.01;
         queue = Net.Queue_disc.Bernoulli_loss 0.999;
         capacity = 100;
         phase_jitter = false;
       });
  Net.Network.install_routes net;
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 120.0;
  Alcotest.(check bool) "timeouts occurred" true (Tcp.Sender.timeouts tcp > 2);
  Alcotest.(check bool) "cwnd collapsed" true (Tcp.Sender.cwnd tcp <= 2.0);
  Alcotest.(check bool) "bounded send volume" true (Tcp.Sender.sent_new tcp < 1000)

let test_finite_flow_completes () =
  let net, a, b = build_pair ~mu_pkts:1000.0 () in
  let params = { Tcp.Sender.default_params with Tcp.Sender.limit = Some 50 } in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b ~params () in
  Alcotest.(check bool) "not complete initially" false ((Tcp.Sender.completed_at tcp <> None));
  Net.Network.run_until net 30.0;
  Alcotest.(check bool) "complete" true ((Tcp.Sender.completed_at tcp <> None));
  Alcotest.(check int) "delivered exactly the limit" 50 (Tcp.Sender.delivered tcp);
  Alcotest.(check int) "sent exactly the limit" 50 (Tcp.Sender.sent_new tcp);
  match Tcp.Sender.completed_at tcp with
  | Some finish -> Alcotest.(check bool) "finished quickly" true (finish < 5.0)
  | None -> Alcotest.fail "no completion time"

let test_finite_flow_completes_under_loss () =
  let net, a, b = build_pair ~mu_pkts:100.0 ~capacity:4 ~seed:5 () in
  (* Competing persistent flow to force drops onto the short one. *)
  let _bg = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let params = { Tcp.Sender.default_params with Tcp.Sender.limit = Some 30 } in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b ~params ~start_at:5.0 () in
  Net.Network.run_until net 120.0;
  Alcotest.(check bool) "completes despite drops" true
    ((Tcp.Sender.completed_at tcp <> None));
  Alcotest.(check int) "all packets delivered" 30 (Tcp.Sender.delivered tcp)


let test_sender_ecn_cuts_without_loss () =
  (* ECN-enabled RED bottleneck: marks throttle the flow, so it stays
     near the link rate with almost no retransmissions. *)
  let net = Net.Network.create ~seed:4 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore
    (Net.Network.duplex net a b
       {
         Net.Link.bandwidth_bps = 100.0 *. 8000.0;
         prop_delay = 0.05;
         queue =
           Net.Queue_disc.Red_gateway
             {
               (Net.Red.default_params ~mean_pkt_time:0.01) with
               Net.Red.ecn = true;
             };
         capacity = 20;
         phase_jitter = false;
       });
  Net.Network.install_routes net;
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  Net.Network.run_until net 120.0;
  Alcotest.(check bool) "cuts happened" true (Tcp.Sender.window_cuts tcp > 5);
  let sent = Tcp.Sender.sent_new tcp in
  let rexmit = Tcp.Sender.retransmits tcp in
  Alcotest.(check bool)
    (Printf.sprintf "retransmissions rare (%d / %d)" rexmit sent)
    true
    (rexmit * 50 < sent);
  Alcotest.(check bool) "throughput near link rate" true
    (Tcp.Sender.delivered tcp > 80 * 120 * 8 / 10)

let test_receiver_sack_blocks () =
  (* Feed a receiver out-of-order data directly and inspect the acks it
     generates. *)
  let net, a, b = build_pair ~mu_pkts:10_000.0 () in
  let flow = Net.Network.fresh_flow net in
  let acks = ref [] in
  Net.Node.attach (Net.Network.node net a) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Tcp.Wire.Tcp_ack { cum_ack; blocks; _ } ->
          acks := (cum_ack, blocks) :: !acks
      | _ -> ());
  let _rcv = Tcp.Receiver.create ~net ~node:b ~flow ~peer:a () in
  let send seq =
    let pkt =
      Net.Network.make_packet net ~flow ~src:a ~dst:(Net.Packet.Unicast b)
        ~size:1000
        ~payload:(Tcp.Wire.Tcp_data { seq; sent_at = Net.Network.now net })
    in
    Net.Network.send net pkt
  in
  (* Send 0, skip 1, send 2 and 3. *)
  send 0; send 2; send 3;
  Net.Network.run_until net 1.0;
  (match !acks with
  | (cum, blocks) :: _ ->
      Alcotest.(check int) "cum stuck at 1" 1 cum;
      (match blocks with
      | [ { Tcp.Wire.block_lo = 2; block_hi = 4 } ] -> ()
      | _ -> Alcotest.fail "expected SACK block [2,4)")
  | [] -> Alcotest.fail "no acks seen");
  (* Filling the hole advances cum and clears the block. *)
  send 1;
  Net.Network.run_until net 2.0;
  match !acks with
  | (cum, blocks) :: _ ->
      Alcotest.(check int) "cum caught up" 4 cum;
      Alcotest.(check int) "no blocks" 0 (List.length blocks)
  | [] -> Alcotest.fail "no acks"

let test_receiver_duplicate_counting () =
  let net, a, b = build_pair () in
  let flow = Net.Network.fresh_flow net in
  let rcv = Tcp.Receiver.create ~net ~node:b ~flow ~peer:a () in
  let send seq =
    Net.Network.send net
      (Net.Network.make_packet net ~flow ~src:a ~dst:(Net.Packet.Unicast b)
         ~size:1000
         ~payload:(Tcp.Wire.Tcp_data { seq; sent_at = 0.0 }))
  in
  send 0; send 0; send 2; send 2;
  Net.Network.run_until net 1.0;
  Alcotest.(check int) "two duplicates" 2 ((Tcp.Receiver.capture rcv).s_duplicates);
  Alcotest.(check int) "received total" 4 ((Tcp.Receiver.capture rcv).s_received_total)

(* ------------------------------------------------------------------ *)
(* Hardening: options, handshake, flow control, RFC 5961              *)
(* ------------------------------------------------------------------ *)

let test_options_codec_roundtrip () =
  List.iter
    (fun mss ->
      for wscale = 0 to Tcp.Options.max_wscale do
        List.iter
          (fun sack_ok ->
            let o = Tcp.Options.make ~mss ~wscale ~sack_ok in
            match Tcp.Options.decode (Tcp.Options.encode o) with
            | Ok o' ->
                Alcotest.(check bool)
                  (Printf.sprintf "round-trips mss=%d wscale=%d sack=%b" mss
                     wscale sack_ok)
                  true (o = o')
            | Error _ ->
                Alcotest.failf "decode failed: mss=%d wscale=%d" mss wscale)
          [ false; true ]
      done)
    [ 1; 536; 1000; 1460; 65535 ]

let test_options_codec_rejects_junk () =
  let syn_options = Tcp.Options.make ~mss:1000 ~wscale:0 ~sack_ok:true in
  let rejects v =
    match Tcp.Options.decode v with Error _ -> true | Ok _ -> false
  in
  Alcotest.(check bool) "zero mss" true (rejects 0);
  Alcotest.(check bool) "shift 15" true
    (rejects (Tcp.Options.encode syn_options lor (15 lsl 16)));
  Alcotest.(check bool) "stray high bits" true
    (rejects (Tcp.Options.encode syn_options lor (1 lsl 22)));
  Alcotest.(check bool) "make validates" true
    (try
       ignore (Tcp.Options.make ~mss:0 ~wscale:0 ~sack_ok:false);
       false
     with Invalid_argument _ -> true)

let test_options_negotiate () =
  let a = Tcp.Options.make ~mss:1460 ~wscale:7 ~sack_ok:true in
  let b = Tcp.Options.make ~mss:536 ~wscale:2 ~sack_ok:false in
  let m = Tcp.Options.negotiate a b in
  Alcotest.(check int) "min mss" 536 m.Tcp.Options.mss;
  Alcotest.(check int) "min shift" 2 m.Tcp.Options.wscale;
  Alcotest.(check bool) "sack iff both" false m.Tcp.Options.sack_ok;
  Alcotest.(check bool) "symmetric" true
    (Tcp.Options.negotiate b a = m)

let test_handshake_negotiates_wscale () =
  let net, a, b = build_pair () in
  let params =
    { Tcp.Sender.default_params with Tcp.Sender.handshake = true; wscale = 5 }
  in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b ~params () in
  Alcotest.(check bool) "not yet established" false
    ((Tcp.Sender.capture tcp).s_established);
  Net.Network.run_until net 5.0;
  Alcotest.(check bool) "established" true ((Tcp.Sender.capture tcp).s_established);
  Alcotest.(check bool) "syn sent" true ((Tcp.Sender.capture tcp).s_syn_sent >= 1);
  Alcotest.(check int) "negotiated shift" 5
    ((Tcp.Sender.capture tcp).s_neg_wscale);
  Alcotest.(check int) "receiver agrees" 5
    ((Tcp.Receiver.capture (Tcp.Sender.receiver tcp)).s_wscale);
  Alcotest.(check bool) "data flows after the handshake" true
    (Tcp.Sender.delivered tcp > 100)

let test_zero_window_persist () =
  (* A slow application behind a fast path: the sender fills the
     8-packet buffer, the window closes, and only persist-timer probes
     keep the connection alive until drain opens it again. *)
  let net, a, b = build_pair ~mu_pkts:10_000.0 ~capacity:200 () in
  let params =
    {
      Tcp.Sender.default_params with
      Tcp.Sender.window =
        Some { Tcp.Receiver.capacity = 8; app_rate = 20.0 };
    }
  in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b ~params () in
  Net.Network.run_until net 30.0;
  let rcv = Tcp.Sender.receiver tcp in
  Alcotest.(check bool) "probes sent" true
    ((Tcp.Sender.capture tcp).s_zero_window_probes > 0);
  Alcotest.(check bool) "probes answered" true
    ((Tcp.Receiver.capture rcv).s_probes_received > 0);
  (* Flow control throttles to the drain rate but never deadlocks. *)
  let delivered = Tcp.Sender.delivered tcp in
  Alcotest.(check bool)
    (Printf.sprintf "delivery tracks the app drain (%d)" delivered)
    true
    (delivered > 400 && delivered < 700)

let inject net ~flow ~src ~dst payload ~size =
  Net.Network.send net
    (Net.Network.make_packet net ~flow ~src ~dst:(Net.Packet.Unicast dst)
       ~size ~payload)

let test_rst_validation_strict () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let flow = Tcp.Sender.flow tcp in
  let rcv = Tcp.Sender.receiver tcp in
  Net.Network.run_until net 5.0;
  let expected = (Tcp.Receiver.capture rcv).s_expected in
  (* Far outside the window: silently dropped. *)
  inject net ~flow ~src:a ~dst:b
    (Tcp.Wire.Tcp_rst { seq = expected + 1_000_000 })
    ~size:Tcp.Wire.ack_size;
  Net.Network.run_until net 6.0;
  Alcotest.(check int) "outside window dropped" 1 (Tcp.Receiver.capture rcv).s_rst_dropped;
  Alcotest.(check bool) "still open" false (Tcp.Receiver.capture rcv).s_closed;
  (* In-window but inexact: challenge ack, no teardown (RFC 5961).
     Aim 500 ahead — far beyond what can arrive during the RST's own
     flight (at most a cwnd's worth), well inside the 1024 window. *)
  let expected = (Tcp.Receiver.capture rcv).s_expected in
  inject net ~flow ~src:a ~dst:b
    (Tcp.Wire.Tcp_rst { seq = expected + 500 })
    ~size:Tcp.Wire.ack_size;
  Net.Network.run_until net 7.0;
  Alcotest.(check int) "in-window challenged" 1
    (Tcp.Receiver.capture rcv).s_rst_challenged;
  Alcotest.(check bool) "challenge ack sent" true
    ((Tcp.Receiver.capture rcv).s_challenge_acks >= 1);
  Alcotest.(check bool) "still open after challenge" false
    (Tcp.Receiver.capture rcv).s_closed;
  Alcotest.(check int) "nothing accepted" 0 (Tcp.Receiver.capture rcv).s_rst_accepted

let test_rst_exact_match_accepted () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let flow = Tcp.Sender.flow tcp in
  let rcv = Tcp.Sender.receiver tcp in
  Net.Network.run_until net 5.0;
  let before = (Tcp.Receiver.capture rcv).s_expected in
  (* An attacker who knows the exact next sequence is indistinguishable
     from the peer: the RST is honored even under strict validation.
     Freeze the flow first so the in-order point holds still. *)
  Tcp.Sender.stop tcp;
  Net.Network.run_until net 8.0;
  inject net ~flow ~src:a ~dst:b
    (Tcp.Wire.Tcp_rst { seq = (Tcp.Receiver.capture rcv).s_expected })
    ~size:Tcp.Wire.ack_size;
  Net.Network.run_until net 9.0;
  Alcotest.(check bool) "accepted" true ((Tcp.Receiver.capture rcv).s_rst_accepted >= 1);
  Alcotest.(check bool) "torn down" true (Tcp.Receiver.capture rcv).s_closed;
  (* A closed endpoint goes silent: no more delivery progress. *)
  let frozen = (Tcp.Receiver.capture rcv).s_expected in
  Net.Network.run_until net 12.0;
  Alcotest.(check int) "no progress after close" frozen
    ((Tcp.Receiver.capture rcv).s_expected);
  Alcotest.(check bool) "in-order point had advanced first" true (before > 0)

let test_rst_validation_legacy () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let flow = Tcp.Sender.flow tcp in
  let rcv = Tcp.Sender.receiver tcp in
  Tcp.Receiver.set_rst_strict rcv false;
  Net.Network.run_until net 5.0;
  (* The same inexact in-window guess that a strict stack challenges
     kills a legacy stack outright. *)
  inject net ~flow ~src:a ~dst:b
    (Tcp.Wire.Tcp_rst { seq = (Tcp.Receiver.capture rcv).s_expected + 500 })
    ~size:Tcp.Wire.ack_size;
  Net.Network.run_until net 6.0;
  Alcotest.(check bool) "legacy accepts in-window RST" true
    ((Tcp.Receiver.capture rcv).s_rst_accepted >= 1);
  Alcotest.(check bool) "torn down" true (Tcp.Receiver.capture rcv).s_closed;
  Alcotest.(check int) "no challenge" 0 (Tcp.Receiver.capture rcv).s_rst_challenged

let test_blind_data_inject_ghosted () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let flow = Tcp.Sender.flow tcp in
  let rcv = Tcp.Sender.receiver tcp in
  Net.Network.run_until net 5.0;
  inject net ~flow ~src:a ~dst:b
    (Tcp.Wire.Tcp_data { seq = 50_000_000; sent_at = 5.0 })
    ~size:1000;
  Net.Network.run_until net 6.0;
  Alcotest.(check int) "ghost data counted" 1 ((Tcp.Receiver.capture rcv).s_ghost_data);
  Alcotest.(check int) "not buffered" 0
    (List.length (Tcp.Receiver.capture rcv).s_ooo);
  Alcotest.(check bool) "flow unharmed" false (Tcp.Receiver.capture rcv).s_closed

let test_ghost_ack_dropped_by_sender () =
  let net, a, b = build_pair () in
  let tcp = Tcp.Sender.create ~net ~src:a ~dst:b () in
  let flow = Tcp.Sender.flow tcp in
  Net.Network.run_until net 5.0;
  (* An optimistic ack for data never sent must be dropped by the
     ack-validation fast path, not absorbed into the scoreboard. *)
  inject net ~flow ~src:b ~dst:a
    (Tcp.Wire.Tcp_ack
       {
         cum_ack = 50_000_000;
         blocks = [];
         echo = 5.0;
         ece = false;
         rwnd = Tcp.Wire.no_rwnd;
       })
    ~size:Tcp.Wire.ack_size;
  Net.Network.run_until net 6.0;
  Alcotest.(check int) "ghost ack counted" 1 (Tcp.Sender.ghost_acks tcp);
  Alcotest.(check bool) "delivered untouched" true
    (Tcp.Sender.delivered tcp < 50_000_000)

let () =
  Alcotest.run "tcp"
    [
      ( "rto",
        [
          Alcotest.test_case "before samples" `Quick test_rto_before_samples;
          Alcotest.test_case "first sample" `Quick test_rto_first_sample;
          Alcotest.test_case "smoothing" `Quick test_rto_smoothing;
          Alcotest.test_case "min clamp" `Quick test_rto_min_clamp;
          Alcotest.test_case "backoff" `Quick test_rto_backoff;
          Alcotest.test_case "max clamp" `Quick test_rto_max_clamp;
          Alcotest.test_case "karn rejects ambiguous samples" `Quick
            test_rto_karn;
          Alcotest.test_case "backoff freezes at max" `Quick
            test_rto_at_max_freezes;
          Alcotest.test_case "negative sample" `Quick test_rto_negative_sample;
        ] );
      ( "scoreboard",
        [
          Alcotest.test_case "register" `Quick test_sb_register;
          Alcotest.test_case "advance cum" `Quick test_sb_advance_cum;
          Alcotest.test_case "advance beyond sent" `Quick test_sb_advance_beyond_sent;
          Alcotest.test_case "sack reduces pipe" `Quick test_sb_sack_reduces_pipe;
          Alcotest.test_case "old sack ignored" `Quick
            test_sb_sack_below_high_ack_ignored;
          Alcotest.test_case "loss detection" `Quick test_sb_loss_detection;
          Alcotest.test_case "dupthresh boundary" `Quick test_sb_loss_needs_dupthresh;
          Alcotest.test_case "retransmit cycle" `Quick test_sb_retransmit_cycle;
          Alcotest.test_case "rexmit guards" `Quick test_sb_rexmit_guards;
          Alcotest.test_case "sack clears lost" `Quick test_sb_sack_clears_lost;
          Alcotest.test_case "mark all lost" `Quick test_sb_mark_all_lost;
          Alcotest.test_case "advance_cum_seqs fresh only" `Quick
            test_sb_advance_cum_seqs_fresh_only;
          Alcotest.test_case "mark_sacked_seqs" `Quick test_sb_mark_sacked_seqs;
          Alcotest.test_case "expire rexmits" `Quick test_sb_expire_rexmits;
          Alcotest.test_case "expire rexmits empty" `Quick
            test_sb_expire_rexmits_empty;
          Alcotest.test_case "next_seq kept outside" `Quick test_sb_outside_next_seq;
          QCheck_alcotest.to_alcotest prop_sb_random_ops;
        ] );
      ( "endpoints",
        [
          Alcotest.test_case "delivers in order" `Quick test_sender_delivers_in_order;
          Alcotest.test_case "slow start growth" `Quick test_sender_slow_start_growth;
          Alcotest.test_case "recovers from loss" `Quick test_sender_recovers_from_loss;
          Alcotest.test_case "tracks bottleneck" `Slow
            test_sender_throughput_tracks_bottleneck;
          Alcotest.test_case "two flows share" `Slow test_sender_two_flows_share_fairly;
          Alcotest.test_case "rtt measured" `Quick test_sender_rtt_measured;
          Alcotest.test_case "timeout on dead path" `Quick
            test_sender_timeout_on_dead_path;
          Alcotest.test_case "finite flow" `Quick test_finite_flow_completes;
          Alcotest.test_case "finite flow under loss" `Quick
            test_finite_flow_completes_under_loss;
          Alcotest.test_case "ecn cuts without loss" `Quick
            test_sender_ecn_cuts_without_loss;
          Alcotest.test_case "receiver sack blocks" `Quick test_receiver_sack_blocks;
          Alcotest.test_case "receiver duplicates" `Quick
            test_receiver_duplicate_counting;
        ] );
      ( "hardening",
        [
          Alcotest.test_case "options codec round-trip" `Quick
            test_options_codec_roundtrip;
          Alcotest.test_case "options codec rejects junk" `Quick
            test_options_codec_rejects_junk;
          Alcotest.test_case "options negotiate" `Quick test_options_negotiate;
          Alcotest.test_case "handshake negotiates wscale" `Quick
            test_handshake_negotiates_wscale;
          Alcotest.test_case "zero-window persist" `Quick
            test_zero_window_persist;
          Alcotest.test_case "rst strict validation" `Quick
            test_rst_validation_strict;
          Alcotest.test_case "rst exact match accepted" `Quick
            test_rst_exact_match_accepted;
          Alcotest.test_case "rst legacy stack dies" `Quick
            test_rst_validation_legacy;
          Alcotest.test_case "blind data ghosted" `Quick
            test_blind_data_inject_ghosted;
          Alcotest.test_case "ghost ack dropped" `Quick
            test_ghost_ack_dropped_by_sender;
        ] );
    ]
