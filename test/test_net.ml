(* Tests for the network substrate: packets, RED, queue disciplines,
   links, nodes, network/routing/multicast. *)

let check_float = Alcotest.(check (float 1e-9))

let droptail_config ?(capacity = 20) ?(bw = 8_000_000.0) ?(delay = 0.01) () =
  {
    Net.Link.bandwidth_bps = bw;
    prop_delay = delay;
    queue = Net.Queue_disc.Droptail;
    capacity;
    phase_jitter = false;
  }

(* ------------------------------------------------------------------ *)
(* Packet                                                             *)
(* ------------------------------------------------------------------ *)

(* ------------------------------------------------------------------ *)
(* Packet pool                                                        *)
(* ------------------------------------------------------------------ *)

type Net.Packet.payload += Probe

let test_pool_acquire_release_recycles () =
  let pool = Net.Packet.Pool.create () in
  let p =
    Net.Packet.Pool.acquire pool ~uid:7 ~flow:1 ~src:0
      ~dst:(Net.Packet.Unicast 2) ~size:1000 ~payload:Probe ~born:0.5
  in
  Alcotest.(check int) "one reference" 1 p.Net.Packet.refs;
  Alcotest.(check bool) "ecn starts false" false p.Net.Packet.ecn;
  Alcotest.(check int) "fresh record" 1 (Net.Packet.Pool.allocated pool);
  Net.Packet.Pool.release pool p;
  Alcotest.(check int) "free after release" 1 (Net.Packet.Pool.free_count pool);
  (* The protocol header must not stay alive in the free list. *)
  Alcotest.(check bool) "payload reset on release" true
    (p.Net.Packet.payload = Net.Packet.Raw);
  let q =
    Net.Packet.Pool.acquire pool ~uid:8 ~flow:2 ~src:1
      ~dst:(Net.Packet.Unicast 3) ~size:500 ~payload:Net.Packet.Raw ~born:1.0
  in
  Alcotest.(check bool) "record recycled" true (p == q);
  Alcotest.(check int) "recycle counted" 1 (Net.Packet.Pool.recycled pool);
  Alcotest.(check int) "no second allocation" 1 (Net.Packet.Pool.allocated pool);
  Alcotest.(check int) "uid rewritten" 8 q.Net.Packet.uid;
  Alcotest.(check int) "free list drained" 0 (Net.Packet.Pool.free_count pool)

let test_pool_refcounts () =
  let pool = Net.Packet.Pool.create () in
  let p =
    Net.Packet.Pool.acquire pool ~uid:1 ~flow:0 ~src:0
      ~dst:(Net.Packet.Unicast 1) ~size:100 ~payload:Net.Packet.Raw ~born:0.0
  in
  Net.Packet.Pool.retain p;
  Net.Packet.Pool.retain p;
  Alcotest.(check int) "three references" 3 p.Net.Packet.refs;
  Net.Packet.Pool.release pool p;
  Net.Packet.Pool.release pool p;
  Alcotest.(check int) "still owned" 0 (Net.Packet.Pool.free_count pool);
  Net.Packet.Pool.release pool p;
  Alcotest.(check int) "freed on last release" 1
    (Net.Packet.Pool.free_count pool);
  Alcotest.(check bool) "double release rejected" true
    (try
       Net.Packet.Pool.release pool p;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "retain on dead packet rejected" true
    (try
       Net.Packet.Pool.retain p;
       false
     with Invalid_argument _ -> true)

let test_pool_acquire_copy () =
  let pool = Net.Packet.Pool.create () in
  let p =
    Net.Packet.Pool.acquire pool ~uid:42 ~flow:3 ~src:1
      ~dst:(Net.Packet.Multicast 0) ~size:1500 ~payload:Net.Packet.Raw
      ~born:2.0
  in
  (* Shared packet: a congestion mark must copy, not mutate. *)
  Net.Packet.Pool.retain p;
  let c = Net.Packet.Pool.acquire_copy pool p in
  Alcotest.(check bool) "distinct record" true (not (p == c));
  Alcotest.(check int) "same uid" 42 c.Net.Packet.uid;
  Alcotest.(check int) "same size" 1500 c.Net.Packet.size;
  check_float "same born" 2.0 c.Net.Packet.born;
  Alcotest.(check int) "copy has one reference" 1 c.Net.Packet.refs;
  Alcotest.(check int) "original refs untouched" 2 p.Net.Packet.refs;
  c.Net.Packet.ecn <- true;
  Alcotest.(check bool) "original unmarked" false p.Net.Packet.ecn

(* ------------------------------------------------------------------ *)
(* RED                                                                *)
(* ------------------------------------------------------------------ *)

let red_params = Net.Red.default_params ~mean_pkt_time:0.001

let test_red_admits_when_small () =
  let red = Net.Red.create red_params ~rng:(Sim.Rng.create 1) in
  (* Average starts at 0 and moves slowly; small queues always admit. *)
  for i = 0 to 99 do
    match Net.Red.decide red ~now:(float_of_int i *. 0.001) ~qlen:2 with
    | `Admit -> ()
    | `Drop | `Mark -> Alcotest.fail "dropped below min threshold"
  done

let test_red_avg_tracks_queue () =
  let red = Net.Red.create red_params ~rng:(Sim.Rng.create 1) in
  for _ = 1 to 5_000 do
    ignore (Net.Red.decide red ~now:0.0 ~qlen:10)
  done;
  Alcotest.(check bool) "avg converged toward 10" true
    (abs_float ((Net.Red.capture red).Net.Red.s_avg -. 10.0) < 0.5)

let test_red_drops_above_max () =
  let red = Net.Red.create red_params ~rng:(Sim.Rng.create 1) in
  for _ = 1 to 10_000 do
    ignore (Net.Red.decide red ~now:0.0 ~qlen:18)
  done;
  (* avg is now ~18, above max_th=15: every arrival must drop. *)
  (match Net.Red.decide red ~now:0.0 ~qlen:18 with
  | `Drop -> ()
  | `Admit | `Mark -> Alcotest.fail "must drop above max threshold");
  Alcotest.(check bool) "drop counter advanced" true ((Net.Red.capture red).Net.Red.s_drops > 0)

let test_red_probabilistic_between_thresholds () =
  let red = Net.Red.create red_params ~rng:(Sim.Rng.create 42) in
  (* Drive the average to ~10 (between min 5 and max 15). *)
  for _ = 1 to 5_000 do
    ignore (Net.Red.decide red ~now:0.0 ~qlen:10)
  done;
  let drops = ref 0 and n = 2_000 in
  for _ = 1 to n do
    match Net.Red.decide red ~now:0.0 ~qlen:10 with
    | `Drop -> incr drops
    | `Admit | `Mark -> ()
  done;
  let rate = float_of_int !drops /. float_of_int n in
  (* p_b = 0.1*(10-5)/10 = 0.05; the count mechanism spreads drops so
     the effective rate is close to p_b. *)
  Alcotest.(check bool)
    (Printf.sprintf "drop rate %.3f in (0.01, 0.15)" rate)
    true
    (rate > 0.01 && rate < 0.15)

let test_red_ecn_marks_in_band () =
  let params = { red_params with Net.Red.ecn = true } in
  let red = Net.Red.create params ~rng:(Sim.Rng.create 42) in
  for _ = 1 to 5_000 do
    ignore (Net.Red.decide red ~now:0.0 ~qlen:10)
  done;
  let marks = ref 0 and drops = ref 0 in
  for _ = 1 to 2_000 do
    match Net.Red.decide red ~now:0.0 ~qlen:10 with
    | `Mark -> incr marks
    | `Drop -> incr drops
    | `Admit -> ()
  done;
  Alcotest.(check bool) "marks happened" true (!marks > 10);
  Alcotest.(check int) "no drops in band with ecn" 0 !drops;
  Alcotest.(check bool) "mark counter" true ((Net.Red.capture red).Net.Red.s_marks > 0)

let test_red_ecn_still_drops_above_max () =
  let params = { red_params with Net.Red.ecn = true } in
  let red = Net.Red.create params ~rng:(Sim.Rng.create 1) in
  for _ = 1 to 10_000 do
    ignore (Net.Red.decide red ~now:0.0 ~qlen:18)
  done;
  match Net.Red.decide red ~now:0.0 ~qlen:18 with
  | `Drop -> ()
  | `Admit | `Mark -> Alcotest.fail "over max_th must still drop"

let test_red_idle_decay () =
  let red = Net.Red.create red_params ~rng:(Sim.Rng.create 1) in
  for _ = 1 to 5_000 do
    ignore (Net.Red.decide red ~now:0.0 ~qlen:12)
  done;
  let before = (Net.Red.capture red).Net.Red.s_avg in
  Net.Red.note_empty red ~now:1.0;
  (* After a long idle period the average decays substantially. *)
  ignore (Net.Red.decide red ~now:10.0 ~qlen:0);
  Alcotest.(check bool) "idle decayed the average" true
    ((Net.Red.capture red).Net.Red.s_avg < before /. 2.0)

(* ------------------------------------------------------------------ *)
(* Queue_disc                                                         *)
(* ------------------------------------------------------------------ *)

let test_disc_droptail_capacity () =
  let d =
    Net.Queue_disc.create Net.Queue_disc.Droptail ~capacity:5
      ~rng:(Sim.Rng.create 1)
  in
  (match Net.Queue_disc.on_arrival d ~now:0.0 ~qlen:4 with
  | `Admit -> ()
  | `Drop | `Mark -> Alcotest.fail "should admit under capacity");
  match Net.Queue_disc.on_arrival d ~now:0.0 ~qlen:5 with
  | `Drop -> ()
  | `Admit | `Mark -> Alcotest.fail "should drop at capacity"

let test_disc_bernoulli () =
  let d =
    Net.Queue_disc.create (Net.Queue_disc.Bernoulli_loss 0.5) ~capacity:100
      ~rng:(Sim.Rng.create 3)
  in
  let drops = ref 0 and n = 10_000 in
  for _ = 1 to n do
    match Net.Queue_disc.on_arrival d ~now:0.0 ~qlen:0 with
    | `Drop -> incr drops
    | `Admit | `Mark -> ()
  done;
  let rate = float_of_int !drops /. float_of_int n in
  Alcotest.(check bool) "about half dropped" true (abs_float (rate -. 0.5) < 0.03)

let test_disc_bernoulli_invalid () =
  Alcotest.(check bool) "p = 1 rejected" true
    (try
       ignore
         (Net.Queue_disc.create (Net.Queue_disc.Bernoulli_loss 1.0) ~capacity:1
            ~rng:(Sim.Rng.create 1));
       false
     with Invalid_argument _ -> true)

let test_disc_capacity_invalid () =
  Alcotest.(check bool) "capacity 0 rejected" true
    (try
       ignore
         (Net.Queue_disc.create Net.Queue_disc.Droptail ~capacity:0
            ~rng:(Sim.Rng.create 1));
       false
     with Invalid_argument _ -> true)

let test_disc_avg_queue_nan_for_droptail () =
  let d =
    Net.Queue_disc.create Net.Queue_disc.Droptail ~capacity:5
      ~rng:(Sim.Rng.create 1)
  in
  Alcotest.(check bool) "no average kept" true
    (Net.Queue_disc.capture d = Net.Queue_disc.Stateless)

(* ------------------------------------------------------------------ *)
(* Link                                                               *)
(* ------------------------------------------------------------------ *)

let make_packet ?(uid = 0) ?(size = 1000) () =
  {
    Net.Packet.uid;
    flow = 0;
    src = 0;
    dst = Net.Packet.Unicast 1;
    size;
    payload = Net.Packet.Raw;
    born = 0.0;
    ecn = false;
    refs = 1;
  }

let test_link_ecn_marks_packet () =
  let sched = Sim.Scheduler.create () in
  let got_ecn = ref [] in
  let config =
    {
      Net.Link.bandwidth_bps = 8_000_000.0;
      prop_delay = 0.001;
      queue =
        Net.Queue_disc.Red_gateway
          {
            (Net.Red.default_params ~mean_pkt_time:0.001) with
            Net.Red.ecn = true;
            min_th = 0.0;
            max_th = 10.0;
            max_p = 1.0;
            w_q = 1.0;
          };
      capacity = 100;
      phase_jitter = false;
    }
  in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l" config
      ~deliver:(fun pkt -> got_ecn := pkt.Net.Packet.ecn :: !got_ecn)
  in
  (* With w_q = 1 and max_p = 1 the average jumps straight to the queue
     length, so packets arriving at a non-empty queue are marked. *)
  for i = 1 to 10 do
    Net.Link.send link (make_packet ~uid:i ())
  done;
  Sim.Scheduler.run_until sched 1.0;
  Alcotest.(check bool) "some packets marked" true (List.mem true !got_ecn);
  Alcotest.(check bool) "mark counted" true ((Net.Link.stats link).Net.Link.marked > 0)

let test_link_mark_copies_shared_packet () =
  (* A packet shared with another owner (multicast sibling, here the
     test) must be marked on a private copy with the same uid; the
     retained original stays unmarked. *)
  let sched = Sim.Scheduler.create () in
  let pool = Net.Packet.Pool.create () in
  let delivered = ref [] in
  let config =
    {
      Net.Link.bandwidth_bps = 8_000_000.0;
      prop_delay = 0.001;
      queue =
        Net.Queue_disc.Red_gateway
          {
            (Net.Red.default_params ~mean_pkt_time:0.001) with
            Net.Red.ecn = true;
            min_th = 0.0;
            max_th = 10.0;
            max_p = 1.0;
            w_q = 1.0;
          };
      capacity = 100;
      phase_jitter = false;
    }
  in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool ~id:"l" config
      ~deliver:(fun pkt ->
        delivered := (pkt.Net.Packet.uid, pkt.Net.Packet.ecn) :: !delivered;
        Net.Packet.Pool.release pool pkt)
  in
  let held = ref [] in
  for i = 1 to 10 do
    let pkt =
      Net.Packet.Pool.acquire pool ~uid:i ~flow:0 ~src:0
        ~dst:(Net.Packet.Unicast 1) ~size:1000 ~payload:Net.Packet.Raw
        ~born:0.0
    in
    Net.Packet.Pool.retain pkt;
    held := pkt :: !held;
    Net.Link.send link pkt
  done;
  Sim.Scheduler.run_until sched 1.0;
  let marked = List.filter (fun (_, ecn) -> ecn) !delivered in
  Alcotest.(check bool) "some packets marked" true (marked <> []);
  (* Every retained original is still unmarked: the link marked copies. *)
  List.iter
    (fun p ->
      Alcotest.(check bool) "original unmarked" false p.Net.Packet.ecn;
      Net.Packet.Pool.release pool p)
    !held;
  (* Marked deliveries kept the original uid (1..10). *)
  List.iter
    (fun (uid, _) ->
      Alcotest.(check bool) "uid preserved" true (uid >= 1 && uid <= 10))
    marked

let test_link_delivery_timing () =
  let sched = Sim.Scheduler.create () in
  let arrivals = ref [] in
  (* 8 Mbps -> a 1000-byte packet serializes in 1 ms; +10 ms propagation. *)
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ())
      ~deliver:(fun _ -> arrivals := Sim.Scheduler.now sched :: !arrivals)
  in
  Net.Link.send link (make_packet ());
  Sim.Scheduler.run_until sched 1.0;
  match !arrivals with
  | [ t ] -> check_float "tx + prop" 0.011 t
  | _ -> Alcotest.fail "expected one delivery"

let test_link_serializes () =
  let sched = Sim.Scheduler.create () in
  let arrivals = ref [] in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ())
      ~deliver:(fun pkt -> arrivals := (pkt.Net.Packet.uid, Sim.Scheduler.now sched) :: !arrivals)
  in
  Net.Link.send link (make_packet ~uid:1 ());
  Net.Link.send link (make_packet ~uid:2 ());
  Sim.Scheduler.run_until sched 1.0;
  match List.rev !arrivals with
  | [ (1, t1); (2, t2) ] ->
      check_float "first" 0.011 t1;
      (* Second waits one service time behind the first. *)
      check_float "second" 0.012 t2
  | _ -> Alcotest.fail "expected two deliveries in order"

let test_link_droptail_overflow () =
  let sched = Sim.Scheduler.create () in
  let delivered = ref 0 in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ~capacity:5 ())
      ~deliver:(fun _ -> incr delivered)
  in
  (* Burst of 10: 1 in service + 5 buffered; 4 dropped. *)
  for i = 1 to 10 do
    Net.Link.send link (make_packet ~uid:i ())
  done;
  Sim.Scheduler.run_until sched 1.0;
  let stats = Net.Link.stats link in
  Alcotest.(check int) "offered" 10 stats.Net.Link.offered;
  Alcotest.(check int) "dropped" 4 stats.Net.Link.dropped;
  Alcotest.(check int) "delivered" 6 stats.Net.Link.delivered;
  Alcotest.(check int) "callback count" 6 !delivered

let test_link_drop_hook () =
  let sched = Sim.Scheduler.create () in
  let dropped_uids = ref [] in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ~capacity:1 ())
      ~deliver:(fun _ -> ())
  in
  Net.Link.set_drop_hook link (fun pkt ->
      dropped_uids := pkt.Net.Packet.uid :: !dropped_uids);
  for i = 1 to 4 do
    Net.Link.send link (make_packet ~uid:i ())
  done;
  Sim.Scheduler.run_until sched 1.0;
  Alcotest.(check (list int)) "hook saw the overflow" [ 3; 4 ]
    (List.rev !dropped_uids)

let test_link_phase_jitter_bounded () =
  let sched = Sim.Scheduler.create () in
  let arrivals = ref [] in
  let config = { (droptail_config ()) with Net.Link.phase_jitter = true } in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 5) ~pool:(Net.Packet.Pool.create ()) ~id:"l" config
      ~deliver:(fun _ -> arrivals := Sim.Scheduler.now sched :: !arrivals)
  in
  Net.Link.send link (make_packet ());
  Sim.Scheduler.run_until sched 1.0;
  match !arrivals with
  | [ t ] ->
      (* Base latency 11 ms plus jitter within one service time (1 ms). *)
      Alcotest.(check bool) "within jitter window" true (t >= 0.011 && t < 0.012)
  | _ -> Alcotest.fail "expected one delivery"

let test_link_fifo_under_jitter () =
  (* Phase jitter draws an independent delay per packet; since jitter
     is bounded by one service time of the *delivered* packet, a 40 B
     ACK chasing a 1000 B data packet could overtake it without the
     FIFO clamp.  Exercise many mixed-size back-to-back packets across
     several seeds and require in-order, nondecreasing deliveries. *)
  List.iter
    (fun seed ->
      let sched = Sim.Scheduler.create () in
      let arrivals = ref [] in
      let config = { (droptail_config ~capacity:100 ()) with Net.Link.phase_jitter = true } in
      let link =
        Net.Link.create ~sched ~rng:(Sim.Rng.create seed) ~pool:(Net.Packet.Pool.create ()) ~id:"l" config
          ~deliver:(fun pkt ->
            arrivals := (pkt.Net.Packet.uid, Sim.Scheduler.now sched) :: !arrivals)
      in
      for i = 0 to 39 do
        let size = if i mod 2 = 0 then 1000 else 40 in
        Net.Link.send link (make_packet ~uid:i ~size ())
      done;
      Sim.Scheduler.run_until sched 10.0;
      let arrivals = List.rev !arrivals in
      Alcotest.(check int) "all delivered" 40 (List.length arrivals);
      ignore
        (List.fold_left
           (fun (prev_uid, prev_t) (uid, t) ->
             if uid <> prev_uid + 1 then
               Alcotest.failf "seed %d: uid %d delivered after %d" seed uid
                 prev_uid;
             if t < prev_t then
               Alcotest.failf "seed %d: delivery times regressed at uid %d"
                 seed uid;
             (uid, t))
           (-1, 0.0) arrivals))
    [ 1; 2; 3; 5; 8; 13 ]

let test_link_down_drops_and_restores () =
  let sched = Sim.Scheduler.create () in
  let arrivals = ref [] in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ())
      ~deliver:(fun pkt ->
        arrivals := (pkt.Net.Packet.uid, Sim.Scheduler.now sched) :: !arrivals)
  in
  (* uid 1 serializes 0..1 ms and is on the wire when the link fails. *)
  Net.Link.send link (make_packet ~uid:1 ());
  ignore
    (Sim.Scheduler.schedule_at sched 0.0015 (fun () ->
         (* uid 2 starts serializing at once, uid 3 queues behind it. *)
         Net.Link.send link (make_packet ~uid:2 ());
         Net.Link.send link (make_packet ~uid:3 ())));
  ignore
    (Sim.Scheduler.schedule_at sched 0.002 (fun () ->
         Net.Link.set_down link;
         Alcotest.(check bool) "reports down" false (Net.Link.is_up link)));
  (* Offers while down are rejected without touching the queue. *)
  ignore
    (Sim.Scheduler.schedule_at sched 0.003 (fun () ->
         Net.Link.send link (make_packet ~uid:4 ());
         Alcotest.(check int) "queue empty while down" 0 (Net.Link.qlen link)));
  ignore (Sim.Scheduler.schedule_at sched 0.5 (fun () -> Net.Link.set_up link));
  ignore
    (Sim.Scheduler.schedule_at sched 0.6 (fun () ->
         Net.Link.send link (make_packet ~uid:5 ())));
  Sim.Scheduler.run_until sched 1.0;
  (match List.rev !arrivals with
  | [ (1, t1); (5, t5) ] ->
      (* The in-flight packet survives the outage; transmission resumes
         after repair. *)
      check_float "wire packet arrives" 0.011 t1;
      check_float "post-repair delivery" 0.611 t5
  | l ->
      Alcotest.failf "expected uids 1 and 5, got %d deliveries"
        (List.length l));
  let stats = Net.Link.stats link in
  Alcotest.(check int) "offered" 5 stats.Net.Link.offered;
  (* uid 2 (aborted in service), uid 3 (flushed), uid 4 (rejected). *)
  Alcotest.(check int) "dropped" 3 stats.Net.Link.dropped;
  Alcotest.(check int) "delivered" 2 stats.Net.Link.delivered;
  check_float "downtime" 0.498 (Net.Link.downtime link);
  Alcotest.(check bool) "up again" true (Net.Link.is_up link)

let test_link_down_idempotent () =
  let sched = Sim.Scheduler.create () in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ()) ~deliver:(fun _ -> ())
  in
  Net.Link.set_down link;
  Net.Link.set_down link;
  Net.Link.set_up link;
  Net.Link.set_up link;
  Alcotest.(check bool) "up" true (Net.Link.is_up link);
  let stats = Net.Link.stats link in
  Alcotest.(check int) "no phantom drops" 0 stats.Net.Link.dropped

let test_link_reconfig_keeps_fifo () =
  let sched = Sim.Scheduler.create () in
  let arrivals = ref [] in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ())
      ~deliver:(fun pkt ->
        arrivals := (pkt.Net.Packet.uid, Sim.Scheduler.now sched) :: !arrivals)
  in
  (* uid 1: serializes 0..1 ms at 8 Mbps, arrives at 11 ms; uid 2
     starts serializing at 1 ms. *)
  Net.Link.send link (make_packet ~uid:1 ());
  Net.Link.send link (make_packet ~uid:2 ());
  (* While uid 1 is propagating, the link loses its delay and speeds
     up: uid 2 would naively arrive at ~2 ms, overtaking uid 1. *)
  ignore
    (Sim.Scheduler.schedule_at sched 0.0015 (fun () ->
         Net.Link.set_bandwidth link 800e6;
         Net.Link.set_delay link 0.0));
  Sim.Scheduler.run_until sched 1.0;
  (match List.rev !arrivals with
  | [ (1, t1); (2, t2) ] ->
      check_float "first packet keeps its delay" 0.011 t1;
      Alcotest.(check bool) "FIFO preserved under reconfiguration" true
        (t2 >= t1)
  | _ -> Alcotest.fail "expected exactly uids 1 then 2 in order");
  let cfg = Net.Link.config link in
  check_float "bandwidth updated" 800e6 cfg.Net.Link.bandwidth_bps;
  check_float "delay updated" 0.0 cfg.Net.Link.prop_delay

let test_link_reconfig_validation () =
  let sched = Sim.Scheduler.create () in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ()) ~deliver:(fun _ -> ())
  in
  Alcotest.(check bool) "zero bandwidth rejected" true
    (try Net.Link.set_bandwidth link 0.0; false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "negative delay rejected" true
    (try Net.Link.set_delay link (-0.1); false
     with Invalid_argument _ -> true)

let test_link_stats_reset () =
  let sched = Sim.Scheduler.create () in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
      (droptail_config ()) ~deliver:(fun _ -> ())
  in
  Net.Link.send link (make_packet ());
  Sim.Scheduler.run_until sched 1.0;
  Net.Link.reset_stats link;
  let stats = Net.Link.stats link in
  Alcotest.(check int) "offered reset" 0 stats.Net.Link.offered;
  Alcotest.(check int) "delivered reset" 0 stats.Net.Link.delivered

let test_link_invalid_config () =
  let sched = Sim.Scheduler.create () in
  Alcotest.(check bool) "zero bandwidth rejected" true
    (try
       ignore
         (Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"l"
            { (droptail_config ()) with Net.Link.bandwidth_bps = 0.0 }
            ~deliver:(fun _ -> ()));
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Node                                                               *)
(* ------------------------------------------------------------------ *)

let test_node_local_dispatch () =
  let node = Net.Node.create ~pool:(Net.Packet.Pool.create ()) 7 in
  let got = ref [] in
  Net.Node.attach node ~flow:1 (fun pkt -> got := pkt.Net.Packet.uid :: !got);
  Net.Node.receive node
    { (make_packet ~uid:9 ()) with Net.Packet.dst = Net.Packet.Unicast 7; flow = 1 };
  Alcotest.(check (list int)) "delivered to handler" [ 9 ] !got

let test_node_undeliverable () =
  let node = Net.Node.create ~pool:(Net.Packet.Pool.create ()) 7 in
  Net.Node.receive node
    { (make_packet ()) with Net.Packet.dst = Net.Packet.Unicast 7; flow = 99 };
  Net.Node.receive node
    { (make_packet ()) with Net.Packet.dst = Net.Packet.Unicast 8 };
  Alcotest.(check int) "no handler, no route" 2 (Net.Node.capture node)

let test_node_multicast_membership () =
  let node = Net.Node.create ~pool:(Net.Packet.Pool.create ()) 3 in
  Alcotest.(check bool) "not joined" false (Net.Node.For_testing.joined node ~group:1);
  Net.Node.join node ~group:1;
  Alcotest.(check bool) "joined" true (Net.Node.For_testing.joined node ~group:1);
  let got = ref 0 in
  Net.Node.attach node ~flow:5 (fun _ -> incr got);
  Net.Node.receive node
    { (make_packet ()) with Net.Packet.dst = Net.Packet.Multicast 1; flow = 5 };
  Alcotest.(check int) "multicast delivered locally" 1 !got

let test_node_mcast_route_dedup () =
  let sched = Sim.Scheduler.create () in
  let node = Net.Node.create ~pool:(Net.Packet.Pool.create ()) 0 in
  let link =
    Net.Link.create ~sched ~rng:(Sim.Rng.create 1) ~pool:(Net.Packet.Pool.create ()) ~id:"x" (droptail_config ())
      ~deliver:(fun _ -> ())
  in
  Net.Node.add_mcast_route node ~group:1 link;
  Net.Node.add_mcast_route node ~group:1 link;
  Alcotest.(check int) "dedup" 1 (List.length (Net.Node.For_testing.mcast_routes node ~group:1))

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let build_line () =
  (* 0 -- 1 -- 2 *)
  let net = Net.Network.create ~seed:1 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  let c = Net.Node.id (Net.Network.add_node net) in
  ignore (Net.Network.duplex net a b (droptail_config ()));
  ignore (Net.Network.duplex net b c (droptail_config ()));
  Net.Network.install_routes net;
  (net, a, b, c)

let test_network_routing_line () =
  let net, a, _, c = build_line () in
  let got = ref [] in
  Net.Node.attach (Net.Network.node net c) ~flow:0 (fun pkt ->
      got := pkt.Net.Packet.uid :: !got);
  let pkt =
    Net.Network.make_packet net ~flow:0 ~src:a ~dst:(Net.Packet.Unicast c)
      ~size:1000 ~payload:Net.Packet.Raw
  in
  Net.Network.send net pkt;
  Net.Network.run_until net 1.0;
  Alcotest.(check int) "delivered across two hops" 1 (List.length !got)

let test_network_path () =
  let net, a, _, c = build_line () in
  Alcotest.(check int) "two links" 2 (List.length (Net.Network.path net a c));
  Alcotest.(check int) "self path empty" 0 (List.length (Net.Network.path net a a))

let test_network_local_delivery () =
  let net, a, _, _ = build_line () in
  let got = ref 0 in
  Net.Node.attach (Net.Network.node net a) ~flow:0 (fun _ -> incr got);
  let pkt =
    Net.Network.make_packet net ~flow:0 ~src:a ~dst:(Net.Packet.Unicast a)
      ~size:100 ~payload:Net.Packet.Raw
  in
  Net.Network.send net pkt;
  Alcotest.(check int) "self send is immediate" 1 !got

let test_network_multicast_tree () =
  (* Star: 0 is source, 1 is hub, 2-4 receivers. *)
  let net = Net.Network.create ~seed:1 () in
  let s = Net.Node.id (Net.Network.add_node net) in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let rs = List.init 3 (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  ignore (Net.Network.duplex net s hub (droptail_config ()));
  List.iter (fun r -> ignore (Net.Network.duplex net hub r (droptail_config ()))) rs;
  Net.Network.install_routes net;
  let group = Net.Network.fresh_group net in
  Net.Network.install_multicast net ~group ~src:s ~members:rs;
  let got = ref 0 in
  List.iter
    (fun r -> Net.Node.attach (Net.Network.node net r) ~flow:0 (fun _ -> incr got))
    rs;
  let pkt =
    Net.Network.make_packet net ~flow:0 ~src:s ~dst:(Net.Packet.Multicast group)
      ~size:1000 ~payload:Net.Packet.Raw
  in
  Net.Network.send net pkt;
  Net.Network.run_until net 1.0;
  Alcotest.(check int) "all members got a copy" 3 !got;
  (* The shared first hop must carry the packet exactly once. *)
  let first_hop = Option.get (Net.Network.link_between net s hub) in
  Alcotest.(check int) "no duplicate on shared hop" 1
    (Net.Link.stats first_hop).Net.Link.delivered

let test_network_multicast_requires_routes () =
  let net = Net.Network.create ~seed:1 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  let b = Net.Node.id (Net.Network.add_node net) in
  ignore (Net.Network.duplex net a b (droptail_config ()));
  Alcotest.(check bool) "raises without routes" true
    (try
       Net.Network.install_multicast net ~group:0 ~src:a ~members:[ b ];
       false
     with Invalid_argument _ -> true)

let test_network_fresh_ids () =
  let net = Net.Network.create ~seed:1 () in
  Alcotest.(check int) "flow 0" 0 (Net.Network.fresh_flow net);
  Alcotest.(check int) "flow 1" 1 (Net.Network.fresh_flow net);
  Alcotest.(check int) "group 0" 0 (Net.Network.fresh_group net)

let test_network_duplex_self_loop () =
  let net = Net.Network.create ~seed:1 () in
  let a = Net.Node.id (Net.Network.add_node net) in
  Alcotest.(check bool) "self loop rejected" true
    (try
       ignore (Net.Network.duplex net a a (droptail_config ()));
       false
     with Invalid_argument _ -> true)

let test_network_determinism () =
  (* Same seed, same construction -> identical delivery count trace. *)
  let run seed =
    let net = Net.Network.create ~seed () in
    let a = Net.Node.id (Net.Network.add_node net) in
    let b = Net.Node.id (Net.Network.add_node net) in
    ignore
      (Net.Network.duplex net a b
         { (droptail_config ~capacity:3 ()) with Net.Link.phase_jitter = true });
    Net.Network.install_routes net;
    let got = ref [] in
    Net.Node.attach (Net.Network.node net b) ~flow:0 (fun pkt ->
        got := (pkt.Net.Packet.uid, Net.Network.now net) :: !got);
    for i = 0 to 19 do
      ignore
        (Sim.Scheduler.schedule_at (Net.Network.scheduler net)
           (0.0005 *. float_of_int i)
           (fun () ->
             let pkt =
               Net.Network.make_packet net ~flow:0 ~src:a
                 ~dst:(Net.Packet.Unicast b) ~size:1000 ~payload:Net.Packet.Raw
             in
             Net.Network.send net pkt))
    done;
    Net.Network.run_until net 1.0;
    List.rev !got
  in
  Alcotest.(check bool) "replay equal" true (run 77 = run 77);
  Alcotest.(check bool) "different seed differs" true (run 77 <> run 78)

let test_network_neighbors_order () =
  (* Neighbor lists must come back in link creation order, without
     duplicates, so BFS routing stays deterministic. *)
  let net = Net.Network.create ~seed:1 () in
  let hub = Net.Node.id (Net.Network.add_node net) in
  let spokes = List.init 6 (fun _ -> Net.Node.id (Net.Network.add_node net)) in
  List.iter
    (fun s -> ignore (Net.Network.duplex net hub s (droptail_config ())))
    spokes;
  (* A second duplex on an existing pair must not duplicate entries. *)
  ignore (Net.Network.duplex net hub (List.hd spokes) (droptail_config ()));
  Alcotest.(check (list int)) "creation order, no duplicates" spokes
    (Net.Network.For_testing.neighbors net hub);
  Alcotest.(check (list int)) "spoke sees hub" [ hub ]
    (Net.Network.For_testing.neighbors net (List.hd spokes));
  Alcotest.(check (list int)) "unknown node empty" []
    (Net.Network.For_testing.neighbors net 999)

let test_network_pool_recycles_after_delivery () =
  (* End-to-end pool accounting: once every packet of a burst is
     delivered, all records sit in the free list, and the next burst is
     served from it without fresh allocation. *)
  let net, a, _, c = build_line () in
  let pool = Net.Network.pool net in
  let got = ref 0 in
  Net.Node.attach (Net.Network.node net c) ~flow:0 (fun _ -> incr got);
  let burst () =
    for _ = 1 to 5 do
      let pkt =
        Net.Network.make_packet net ~flow:0 ~src:a ~dst:(Net.Packet.Unicast c)
          ~size:1000 ~payload:Net.Packet.Raw
      in
      Net.Network.send net pkt
    done
  in
  burst ();
  Net.Network.run_until net 1.0;
  Alcotest.(check int) "first burst delivered" 5 !got;
  Alcotest.(check int) "all records back in the free list"
    (Net.Packet.Pool.allocated pool)
    (Net.Packet.Pool.free_count pool);
  let allocated_before = Net.Packet.Pool.allocated pool in
  burst ();
  Net.Network.run_until net 2.0;
  Alcotest.(check int) "second burst delivered" 10 !got;
  Alcotest.(check int) "no new allocations" allocated_before
    (Net.Packet.Pool.allocated pool);
  Alcotest.(check bool) "recycling happened" true
    (Net.Packet.Pool.recycled pool > 0)

let test_network_node_lookup () =
  let net = Net.Network.create ~seed:1 () in
  let a = Net.Network.add_node net in
  Alcotest.(check int) "lookup" (Net.Node.id a)
    (Net.Node.id (Net.Network.node net (Net.Node.id a)));
  Alcotest.(check bool) "unknown raises" true
    (try ignore (Net.Network.node net 99); false with Not_found -> true)

let () =
  Alcotest.run "net"
    [
      ( "pool",
        [
          Alcotest.test_case "acquire/release recycles" `Quick
            test_pool_acquire_release_recycles;
          Alcotest.test_case "refcounts" `Quick test_pool_refcounts;
          Alcotest.test_case "acquire_copy" `Quick test_pool_acquire_copy;
        ] );
      ( "red",
        [
          Alcotest.test_case "admits when small" `Quick test_red_admits_when_small;
          Alcotest.test_case "avg tracks queue" `Quick test_red_avg_tracks_queue;
          Alcotest.test_case "drops above max" `Quick test_red_drops_above_max;
          Alcotest.test_case "probabilistic zone" `Quick
            test_red_probabilistic_between_thresholds;
          Alcotest.test_case "idle decay" `Quick test_red_idle_decay;
          Alcotest.test_case "ecn marks in band" `Quick test_red_ecn_marks_in_band;
          Alcotest.test_case "ecn drops above max" `Quick
            test_red_ecn_still_drops_above_max;
        ] );
      ( "queue_disc",
        [
          Alcotest.test_case "droptail capacity" `Quick test_disc_droptail_capacity;
          Alcotest.test_case "bernoulli rate" `Quick test_disc_bernoulli;
          Alcotest.test_case "bernoulli invalid" `Quick test_disc_bernoulli_invalid;
          Alcotest.test_case "capacity invalid" `Quick test_disc_capacity_invalid;
          Alcotest.test_case "droptail avg is nan" `Quick
            test_disc_avg_queue_nan_for_droptail;
        ] );
      ( "link",
        [
          Alcotest.test_case "delivery timing" `Quick test_link_delivery_timing;
          Alcotest.test_case "ecn marks packet" `Quick test_link_ecn_marks_packet;
          Alcotest.test_case "mark copies shared packet" `Quick
            test_link_mark_copies_shared_packet;
          Alcotest.test_case "serialization" `Quick test_link_serializes;
          Alcotest.test_case "droptail overflow" `Quick test_link_droptail_overflow;
          Alcotest.test_case "drop hook" `Quick test_link_drop_hook;
          Alcotest.test_case "phase jitter bounded" `Quick
            test_link_phase_jitter_bounded;
          Alcotest.test_case "fifo under jitter" `Quick
            test_link_fifo_under_jitter;
          Alcotest.test_case "stats reset" `Quick test_link_stats_reset;
          Alcotest.test_case "invalid config" `Quick test_link_invalid_config;
          Alcotest.test_case "down drops and restores" `Quick
            test_link_down_drops_and_restores;
          Alcotest.test_case "down idempotent" `Quick test_link_down_idempotent;
          Alcotest.test_case "fifo under reconfig" `Quick
            test_link_reconfig_keeps_fifo;
          Alcotest.test_case "reconfig validation" `Quick
            test_link_reconfig_validation;
        ] );
      ( "node",
        [
          Alcotest.test_case "local dispatch" `Quick test_node_local_dispatch;
          Alcotest.test_case "undeliverable" `Quick test_node_undeliverable;
          Alcotest.test_case "multicast membership" `Quick
            test_node_multicast_membership;
          Alcotest.test_case "mcast route dedup" `Quick test_node_mcast_route_dedup;
        ] );
      ( "network",
        [
          Alcotest.test_case "routing line" `Quick test_network_routing_line;
          Alcotest.test_case "path" `Quick test_network_path;
          Alcotest.test_case "local delivery" `Quick test_network_local_delivery;
          Alcotest.test_case "multicast tree" `Quick test_network_multicast_tree;
          Alcotest.test_case "multicast needs routes" `Quick
            test_network_multicast_requires_routes;
          Alcotest.test_case "fresh ids" `Quick test_network_fresh_ids;
          Alcotest.test_case "self loop" `Quick test_network_duplex_self_loop;
          Alcotest.test_case "determinism" `Quick test_network_determinism;
          Alcotest.test_case "neighbors order" `Quick test_network_neighbors_order;
          Alcotest.test_case "pool recycles after delivery" `Quick
            test_network_pool_recycles_after_delivery;
          Alcotest.test_case "node lookup" `Quick test_network_node_lookup;
        ] );
    ]
