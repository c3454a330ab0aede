(* Allocation regression tests for the per-event path.

   Each test warms its subject up (heap, ring and scoreboard arrays
   grown, packet pool stocked), then reads [Gc.minor_words] around a
   steady-state stretch on this one domain.  The counts are exact and
   repeat for a given binary, so each bound is the value measured
   under dune's default (dev) profile, which compiles with [-opaque],
   rounded up in the second decimal.  Under [-opaque] a float crossing
   a call between modules is boxed (2 words); the boxes left on the
   event path are the fire times handed to the scheduler, the clock it
   keeps, and the floats the ack handlers pass to the estimators and
   put in packet headers.  An option, closure or tuple slipped back
   into [Sim], [Net] or the ack handlers raises a count and fails. *)

let words_during f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* What the measuring itself costs, so the bounds are about [f]. *)
let overhead = words_during ignore

let measured f = words_during f -. overhead

let check_at_most what ~bound got =
  if got > bound then
    Alcotest.failf "%s: %.3f words, bound %.3f" what got bound

(* Priorities built once: a [float] handed over from here is already
   boxed, so the heap's own allocation is what gets counted. *)
let boxed_prios = Array.init 1024 (fun i -> Some (float_of_int ((i * 7919) land 1023)))

let prio i = match boxed_prios.(i land 1023) with Some p -> p | None -> 0.0

let test_heap_add_pop () =
  let h = Sim.Heap.create () in
  for i = 0 to 1023 do
    Sim.Heap.add h ~prio:(prio i) i
  done;
  let cycle n =
    for i = 0 to n - 1 do
      ignore (Sim.Heap.pop_top h : int);
      Sim.Heap.add h ~prio:(prio i) i
    done
  in
  cycle 10_000;
  let w = measured (fun () -> cycle 100_000) in
  Alcotest.(check (float 0.0)) "add + pop_top words" 0.0 w

let noop () = ()

(* Words per [step] over 40k events, all fired or all cancelled. *)
let step_words ~cancelled =
  let s = Sim.Scheduler.create () in
  let ids =
    Array.init 60_000 (fun i -> Sim.Scheduler.schedule_at s (prio i) noop)
  in
  if cancelled then begin
    (* As many live events behind the cancelled ones, so that the
       cancelled entries stay in the heap to be skipped one by one
       instead of being compacted out. *)
    for i = 0 to 59_999 do
      ignore (Sim.Scheduler.schedule_at s (2048.0 +. prio i) noop)
    done;
    Array.iter (Sim.Scheduler.cancel s) ids
  end;
  let steps k =
    for _ = 1 to k do
      ignore (Sim.Scheduler.For_testing.step s infinity)
    done
  in
  steps 10_000;
  let k = 40_000 in
  let w = measured (fun () -> steps k) /. float_of_int k in
  Alcotest.(check int) "steps that fired"
    (if cancelled then 0 else 10_000 + k)
    (Sim.Scheduler.events_fired s);
  w

(* One retransmission timer restarted over and over, as a TCP sender
   does on every ack: [cancel] of the pending event, then
   [schedule_after] of one shared thunk.  The cancelled entries are
   compacted out of the heap every 65 or so restarts; the compaction
   must not allocate (its predicate is built with the scheduler). *)
let test_timer_restart () =
  let s = Sim.Scheduler.create () in
  let id = ref (Sim.Scheduler.schedule_after s 1.0 noop) in
  let restart n =
    for _ = 1 to n do
      Sim.Scheduler.cancel s !id;
      id := Sim.Scheduler.schedule_after s 1.0 noop
    done
  in
  restart 10_000;
  let k = 100_000 in
  (* Measured 2.000 before compaction existed, when every cancelled
     entry stayed in the heap: the fire time [schedule_after] boxes
     for [schedule_at]. *)
  check_at_most "words per restart" ~bound:2.0
    (measured (fun () -> restart k) /. float_of_int k)

let test_scheduler_step () =
  (* The clock box: [Heap.top_prio] returns the fire time boxed across
     the module boundary and [step] keeps that box as its clock. *)
  check_at_most "words per fired step" ~bound:2.0
    (step_words ~cancelled:false);
  (* A cancelled entry is dropped without reading its time. *)
  Alcotest.(check (float 0.0)) "words per cancelled step" 0.0
    (step_words ~cancelled:true)

let chain_link =
  {
    Net.Link.bandwidth_bps = 8_000_000.0;
    prop_delay = 0.005;
    queue = Net.Queue_disc.Droptail;
    capacity = 20;
    phase_jitter = false;
  }

(* A 2-link drop-tail chain 0 -> 1 -> 2 fed one 1000-byte packet every
   10 ms by a source that re-arms one shared closure; the sink at node
   2 counts arrivals. *)
let test_chain_hop () =
  let net = Net.Network.create ~seed:3 () in
  for _ = 0 to 2 do
    ignore (Net.Network.add_node net : Net.Node.t)
  done;
  ignore (Net.Network.duplex net 0 1 chain_link);
  ignore (Net.Network.duplex net 1 2 chain_link);
  Net.Network.install_routes net;
  let flow = Net.Network.fresh_flow net in
  let arrived = ref 0 in
  Net.Node.attach (Net.Network.node net 2) ~flow (fun _ -> incr arrived);
  let sched = Net.Network.scheduler net in
  let dst = Net.Packet.Unicast 2 in
  let rec tick () =
    Net.Network.send net
      (Net.Network.make_packet net ~flow ~src:0 ~dst ~size:1000
         ~payload:Net.Packet.Raw);
    ignore (Sim.Scheduler.schedule_after sched 0.01 tick : Sim.Scheduler.event_id)
  in
  ignore (Sim.Scheduler.schedule_at sched 0.0 tick : Sim.Scheduler.event_id);
  Net.Network.run_until net 1.0;
  let packets0 = !arrived in
  let w = measured (fun () -> Net.Network.run_until net 11.0) in
  let packets = !arrived - packets0 in
  Alcotest.(check int) "packets delivered" 1000 packets;
  (* Per packet: the source event (clock box + re-arm time) and, per
     hop, the completion and delivery events (clock box + fire time
     each): 4 + 2 * 8 = 20 words, so 10 per hop (measured 10.003; the
     rest is amortized array growth). *)
  check_at_most "words per hop" ~bound:10.01
    (w /. float_of_int packets /. 2.0)

(* Two shards joined by one 100 ms cut edge: node 0 (shard 0) sends a
   1000-byte packet to node 1 (shard 1) every 10 ms, so each 100 ms
   barrier round carries ten packets through the portal, the barrier
   exchange and the import on the far side. *)
let test_cross_shard_hop () =
  let cut = { chain_link with Net.Link.prop_delay = 0.1 } in
  let topo = Topo_gen.of_edges ~n:2 [ (0, 1, cut) ] in
  let partition = Par.Partition.kruskal topo ~parts:2 in
  match Par.Engine.create ~topo ~partition ~seed:3 () with
  | Error _ -> Alcotest.fail "two-shard engine rejected"
  | Ok eng ->
      Par.Engine.install_toward eng ~parents:[| 1; 1 |] ~dest:1;
      let net0 = Par.Engine.shard_net eng 0 in
      let net1 = Par.Engine.shard_net eng 1 in
      let flow = Net.Network.fresh_flow net0 in
      let arrived = ref 0 in
      Net.Node.attach (Net.Network.node net1 1) ~flow (fun _ -> incr arrived);
      let sched = Net.Network.scheduler net0 in
      let dst = Net.Packet.Unicast 1 in
      let rec tick () =
        Net.Network.send net0
          (Net.Network.make_packet net0 ~flow ~src:0 ~dst ~size:1000
             ~payload:Net.Packet.Raw);
        ignore
          (Sim.Scheduler.schedule_after sched 0.01 tick : Sim.Scheduler.event_id)
      in
      ignore (Sim.Scheduler.schedule_at sched 0.0 tick : Sim.Scheduler.event_id);
      Par.Engine.run eng ~until:1.0 ~workers:1;
      let packets0 = !arrived in
      let w = measured (fun () -> Par.Engine.run eng ~until:11.0 ~workers:1) in
      let packets = !arrived - packets0 in
      Alcotest.(check int) "packets crossed" 1000 packets;
      (* Measured 18.208 (61.388 with the list outboxes, [msg] records
         and per-message closures this replaced): the source event (4),
         the portal's completion and delivery events (8), and the
         import, whose fire time, clock box and birth time crossing
         into [Network.import_packet] cost 2 each; the rest is the
         rounds' own boxed horizons, a tenth of a round per packet. *)
      check_at_most "words per crossed packet" ~bound:18.21
        (w /. float_of_int packets)

(* One TCP flow through a 1.5 Mbit/s drop-tail bottleneck with a
   20-packet buffer: slow start, then a loss-driven sawtooth. *)
let test_tcp_flow () =
  let net = Net.Network.create ~seed:5 () in
  for _ = 0 to 2 do
    ignore (Net.Network.add_node net : Net.Node.t)
  done;
  let fast = { chain_link with Net.Link.bandwidth_bps = 100e6; prop_delay = 0.001 } in
  let slow = { chain_link with Net.Link.bandwidth_bps = 1.5e6; prop_delay = 0.02 } in
  ignore (Net.Network.duplex net 0 1 fast);
  ignore (Net.Network.duplex net 1 2 slow);
  Net.Network.install_routes net;
  let tcp = Tcp.Sender.create ~net ~src:0 ~dst:2 () in
  Net.Network.run_until net 20.0;
  let sched = Net.Network.scheduler net in
  let events0 = Sim.Scheduler.events_fired sched in
  let w = measured (fun () -> Net.Network.run_until net 60.0) in
  let events = Sim.Scheduler.events_fired sched - events0 in
  Alcotest.(check bool) "the flow saw losses" true (Tcp.Sender.window_cuts tcp > 0);
  (* Measured 7.318: 8 events per data packet and its ack, each with
     its clock box and fire time (4 words), the two headers, and the
     five floats the ack handler boxes for the estimators and the
     retransmission timer; recovery adds the SACK lists. *)
  check_at_most "words per event" ~bound:7.32 (w /. float_of_int events)

(* An RLA session from node 0 through a hub to four leaves, buffers
   deep enough that nothing is lost. *)
let test_rla_acks () =
  let net = Net.Network.create ~seed:9 () in
  for _ = 0 to 5 do
    ignore (Net.Network.add_node net : Net.Node.t)
  done;
  let deep bw delay =
    { chain_link with Net.Link.bandwidth_bps = bw; prop_delay = delay; capacity = 1000 }
  in
  ignore (Net.Network.duplex net 0 1 (deep 100e6 0.01));
  for leaf = 2 to 5 do
    ignore (Net.Network.duplex net 1 leaf (deep 10e6 0.005))
  done;
  Net.Network.install_routes net;
  let rla = Rla.Sender.create ~net ~src:0 ~receivers:[ 2; 3; 4; 5 ] () in
  let acks () =
    List.fold_left
      (fun n e -> n + (Rla.Receiver.capture e).s_received_total)
      0
      (Rla.Sender.For_testing.receiver_endpoints rla)
  in
  Net.Network.run_until net 20.0;
  let acks0 = acks () in
  let w = measured (fun () -> Net.Network.run_until net 40.0) in
  (* Measured 50.112 per receiver ack, 7.5 events each: the events'
     clock boxes and fire times, the ack header, and the floats the
     delayed ack and the sender's ack handler box.  (It was 55.277
     while each packet sent also built a hash-table coverage entry.) *)
  check_at_most "words per receiver ack" ~bound:50.12
    (w /. float_of_int (acks () - acks0))

(* Live words the RLA sender keeps for a group of [n] receivers, on a
   star whose distribution tree is installed beforehand and with no
   receiver endpoints, so only the sender's own state is counted. *)
let sender_live_words n =
  let net = Net.Network.create ~seed:3 () in
  let src = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  ignore (Net.Network.duplex net src hub chain_link);
  let receivers =
    List.init n (fun _ ->
        let leaf = Net.Node.id (Net.Network.add_node net) in
        ignore (Net.Network.duplex net hub leaf chain_link);
        leaf)
  in
  Net.Network.install_routes net;
  let group = Net.Network.fresh_group net in
  Net.Network.install_multicast net ~group ~src ~members:receivers;
  let live () =
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let before = live () in
  let rla =
    Rla.Sender.create ~net ~src ~receivers ~endpoints:[] ~tree:(`Preinstalled group) ()
  in
  let words = live () - before in
  ignore (Sys.opaque_identity rla);
  words

(* The sender's words per receiver: the difference between 1,000 and
   500 receivers, so that its fixed part cancels.  Measured 34.536: the
   receiver's record, its scoreboard's counters (no marks ring until the
   first mark), its two EWMAs and its slots in the sender's arrays.  It
   was 328.536 while every receiver's scoreboard carried its own
   next_seq, a 256-byte flag ring and 256 retransmit times. *)
let test_sender_words_per_receiver () =
  let per = float_of_int (sender_live_words 1000 - sender_live_words 500) /. 500.0 in
  check_at_most "sender words per receiver" ~bound:34.54 per

(* A TCP receiver fed data packets directly at a one-node network; it
   acknowledges to its own node, where the ack is delivered to the
   receiver's handler, ignored and released, so no event is scheduled.
   The payloads are built before the measurement.  Returns the words
   per arrival of [seqs b] laid end to end for b = 0, k, 2k, ... *)
let receiver_words ~k seqs =
  let net = Net.Network.create ~seed:1 () in
  ignore (Net.Network.add_node net : Net.Node.t);
  let flow = Net.Network.fresh_flow net in
  ignore (Tcp.Receiver.create ~net ~node:0 ~flow ~peer:0 () : Tcp.Receiver.t);
  let payloads b0 n =
    Array.of_list
      (List.concat_map
         (fun c ->
           List.map
             (fun seq -> Tcp.Wire.Tcp_data { seq; sent_at = 1.0 })
             (seqs (b0 + (c * k))))
         (List.init n Fun.id))
  in
  let dst = Net.Packet.Unicast 0 in
  let feed ps =
    Array.iter
      (fun payload ->
        Net.Network.send net
          (Net.Network.make_packet net ~flow ~src:0 ~dst ~size:1000 ~payload))
      ps
  in
  feed (payloads 0 1000);
  let ps = payloads (1000 * k) 10_000 in
  measured (fun () -> feed ps) /. float_of_int (Array.length ps)

let test_receiver_ooo_ack () =
  (* In order: the ack header is the only allocation. *)
  let in_order = receiver_words ~k:1 (fun b -> [ b ]) in
  check_at_most "words per in-order ack" ~bound:7.01 in_order;
  (* b+1, b+2, b+3 behind a hole at b, then b: three acks that each
     report one SACK block, and one that reports none. *)
  let cycle =
    receiver_words ~k:4 (fun b -> [ b + 1; b + 2; b + 3; b ]) *. 4.0
  in
  (* Beyond the header, an out-of-order ack costs its block record and
     list cell and the representative's cell in the recent list
     (measured 9.000; 22.0 with the hash-table set, its buckets, the
     [seen] list and the reversed block accumulator). *)
  check_at_most "extra words per out-of-order ack" ~bound:9.0
    ((cycle -. (4.0 *. in_order)) /. 3.0)

(* 10k floats boxed once here (a list, so none is boxed again on the
   way to the printer): 9k non-integral ones at binary exponents [lo]
   to [hi], both signs, and 1k integral ones. *)
let floats ~lo ~hi =
  List.init 10_000 (fun i ->
      if i mod 10 = 0 then float_of_int (i * 7919)
      else
        let frac = float_of_int (i * 7919 mod 10_007) /. 10_007. in
        let x = Float.ldexp (1.0 +. frac) (lo + (i mod (hi - lo + 1))) in
        if i land 1 = 0 then x else -.x)

(* Words per float rendered into a buffer that is already large enough,
   so the output buffer itself is not counted. *)
let render_words add xs =
  let buf = Buffer.create (32 * List.length xs) in
  let each f = add buf f in
  let render () =
    Buffer.clear buf;
    List.iter each xs
  in
  render ();
  measured render /. float_of_int (List.length xs)

(* 10k normal floats below 1e-10 (binary exponents -1022 to -35), both
   signs, none a power of two. *)
let tiny_floats =
  List.init 10_000 (fun i ->
      let frac = float_of_int (1 + (i * 7919 mod 10_006)) /. 10_007. in
      let x = Float.ldexp (1.0 +. frac) (-1022 + (i mod 988)) in
      if i land 1 = 0 then x else -.x)

(* Words allocated in either heap while [f] runs: a buffer of more than
   256 words goes straight to the major heap, which [Gc.minor_words]
   does not see. *)
let heap_words_during f =
  let minor0, promoted0, major0 = Gc.counters () in
  f ();
  let minor1, promoted1, major1 = Gc.counters () in
  minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0)

(* Allocated words per output byte of [Json.to_string doc]. *)
let words_per_output_byte doc =
  ignore (Runner.Json.to_string doc);
  let out = ref "" in
  let overhead = heap_words_during ignore in
  let w = heap_words_during (fun () -> out := Runner.Json.to_string doc) in
  (w -. overhead) /. float_of_int (String.length !out)

let test_export_floats () =
  (* The JSON form over the printing kernel's domain, [1e-10, 1e15) and
     the normals below 1e-10, rendered by [to_string] straight into its
     output buffer, and the trace CSV's %.6f and %.0f columns over
     [2^-9, 2^30), where both take the kernel too: digits go straight
     into the buffer, with no string, tuple, limb array or scratch bytes
     per float.  The JSON document allocates only its output buffer (at
     most 25 bytes per float) and the result string: 0.26121 words per
     output byte measured, where one boxed float per number would add
     about 0.1. *)
  check_at_most "JSON words per output byte" ~bound:0.2613
    (words_per_output_byte
       (Runner.Json.Floats
          (Array.of_list (floats ~lo:(-33) ~hi:48 @ tiny_floats))));
  let csv = floats ~lo:(-9) ~hi:29 in
  Alcotest.(check (float 0.0)) "%.6f words per float" 0.0
    (render_words (fun buf f -> Runner.Json.add_fixed buf 6 f) csv);
  Alcotest.(check (float 0.0)) "%.0f words per float" 0.0
    (render_words (fun buf f -> Runner.Json.add_fixed buf 0 f) csv)

(* The registry export's memory: [Json.to_string] of a document holding
   one array of 10^5 floats allocates its output buffer, sized up front
   at no more than 25 bytes per float (bounds of 10, 19 and 24 bytes and
   a comma), and the result string, plus a constant for the repeat
   table.  Measured 0.26545 words per output byte (19.5 bytes per
   float); rendering the array to a string first and then into a
   buffer that doubles, as the registry export did before, measured
   0.6192. *)
let test_document_memory () =
  let n = 100_000 in
  let a =
    Array.init n (fun i ->
        if i mod 10 = 0 then float_of_int (i * 7919)
        else
          let frac = float_of_int (i * 7919 mod 10_007) /. 10_007. in
          let x = Float.ldexp (1.0 +. frac) (-33 + (i mod 82)) in
          if i land 1 = 0 then x else -.x)
  in
  let doc = Runner.Json.Obj [ ("times", Runner.Json.Floats a) ] in
  let len = String.length (Runner.Json.to_string doc) in
  let per_byte = words_per_output_byte doc in
  let words = per_byte *. float_of_int len in
  let one_buffer = float_of_int (((25 * n) + 64) / 8) +. 2.0
  and result = float_of_int (len / 8) +. 2.0 in
  check_at_most "words beyond one buffer and the result" ~bound:200.0
    (words -. one_buffer -. result);
  check_at_most "words per output byte" ~bound:0.2655 per_byte

let () =
  Alcotest.run "alloc"
    [
      ( "event path",
        [
          Alcotest.test_case "heap add + pop_top" `Quick test_heap_add_pop;
          Alcotest.test_case "scheduler step" `Quick test_scheduler_step;
          Alcotest.test_case "timer restart" `Quick test_timer_restart;
          Alcotest.test_case "drop-tail chain hop" `Quick test_chain_hop;
          Alcotest.test_case "cross-shard hop" `Quick test_cross_shard_hop;
          Alcotest.test_case "one TCP flow" `Quick test_tcp_flow;
          Alcotest.test_case "RLA acks" `Quick test_rla_acks;
          Alcotest.test_case "out-of-order TCP ack" `Quick test_receiver_ooo_ack;
        ] );
      ( "live state",
        [
          Alcotest.test_case "sender words per receiver" `Quick
            test_sender_words_per_receiver;
        ] );
      ( "export",
        [
          Alcotest.test_case "float printing" `Quick test_export_floats;
          Alcotest.test_case "document memory" `Quick test_document_memory;
        ] );
    ]
