(* Per-layer unit costs for the traced run's cost model: each function
   drives one layer's public API in a tight loop and returns host
   nanoseconds per operation (median of a few timed batches).  The
   inputs are fixed, so these numbers move only with the layer's code
   and the host's speed. *)

let batches = 7

let ns_per_op ~ops f =
  let samples =
    List.init batches (fun _ ->
        let t0 = Unix.gettimeofday () in
        f ops;
        (Unix.gettimeofday () -. t0) *. 1e9 /. float_of_int ops)
  in
  List.nth (List.sort Float.compare samples) (batches / 2)

(* One event's worth of scheduler heap work: pop the minimum and push a
   successor, at a steady 256 pending entries.  Increments are drawn up
   front so the loop times the heap alone. *)
let heap_add_pop () =
  let h = Sim.Heap.create () in
  let rng = Sim.Rng.create 11 in
  let steps = Array.init 1024 (fun _ -> Sim.Rng.uniform rng) in
  for i = 1 to 256 do
    Sim.Heap.add h ~prio:steps.(i) ()
  done;
  ns_per_op ~ops:400_000 (fun ops ->
      for i = 1 to ops do
        let p = Sim.Heap.top_prio h in
        Sim.Heap.pop_top h;
        Sim.Heap.add h ~prio:(p +. steps.(i land 1023)) ()
      done)

(* One RED arrival decision, with the instantaneous queue sweeping the
   band between the paper's thresholds. *)
let red_decision () =
  let params = Net.Red.default_params ~mean_pkt_time:0.008 in
  let red = Net.Red.create params ~rng:(Sim.Rng.create 12) in
  let now = ref 0.0 in
  ns_per_op ~ops:400_000 (fun ops ->
      for i = 1 to ops do
        now := !now +. 0.001;
        ignore (Net.Red.decide red ~now:!now ~qlen:(i mod 20))
      done)

(* One cumulative ack on a SACK scoreboard holding a 20-packet window,
   plus the new send it opens. *)
let scoreboard_ack () =
  let sb = Tcp.Scoreboard.create () in
  for _ = 1 to 20 do
    ignore (Tcp.Scoreboard.register_send sb)
  done;
  ns_per_op ~ops:400_000 (fun ops ->
      for _ = 1 to ops do
        ignore (Tcp.Scoreboard.register_send sb);
        let cum_ack = Tcp.Scoreboard.high_ack sb + 1 in
        ignore (Tcp.Scoreboard.process_ack sb ~cum_ack ~blocks:[] ~dupthresh:3)
      done)

(* One packet acquired from and released back to the pool. *)
let pool_cycle () =
  let pool = Net.Packet.Pool.create () in
  ns_per_op ~ops:400_000 (fun ops ->
      for i = 1 to ops do
        let p =
          Net.Packet.Pool.acquire pool ~uid:i ~flow:1 ~src:0
            ~dst:(Net.Packet.Unicast 1) ~size:1000 ~payload:Net.Packet.Raw
            ~born:0.0
        in
        Net.Packet.Pool.release pool p
      done)

let costs =
  [
    ("sim.heap_ns_per_op", heap_add_pop);
    ("net.red_ns_per_decision", red_decision);
    ("tcp.scoreboard_ns_per_ack", scoreboard_ack);
    ("net.pool_ns_per_cycle", pool_cycle);
  ]
