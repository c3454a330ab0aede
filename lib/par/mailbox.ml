(* Growable struct-of-arrays storage of cross-shard packets: entry [i]
   of a [box] is the wire content of one packet that left its shard
   through a portal, its arrival time on the receiving side, and the
   global address of the node it enters there.  Arrival and birth sit
   in [float array]s, which store floats unboxed. *)
type box = {
  mutable head : int;  (* first entry not yet imported (import queues) *)
  mutable len : int;
  mutable arrival : float array;
  mutable born : float array;
  mutable entry : int array;
  mutable flow : int array;
  mutable psrc : int array;
  mutable size : int array;
  mutable dst : Net.Packet.dest array;
  mutable payload : Net.Packet.payload array;
  mutable ecn : bool array;
}

(* One shard's mail.  [key]/[refs] hold the fresh batch of the last
   barrier: arrival and message reference ([index * shards + source
   shard]) per import, in merge order after [exchange], scheduled at
   the next round start.  [key2]/[refs2], as long as [key]/[refs], are
   the merge sort's scratch; [spare] is the import queue's next
   contents. *)
type t = {
  net : Net.Network.t;
  out : box;  (* this round's portal deliveries, in push order *)
  mutable queue : box;  (* pending imports, (arrival, admission) order *)
  mutable spare : box;
  mutable key : float array;
  mutable refs : int array;
  mutable key2 : float array;
  mutable refs2 : int array;
  mutable fresh : int;
}

let initial_capacity = 16

(* Filler for unused [dst] cells, built once. *)
let no_dest = Net.Packet.Unicast 0

let create_box () =
  let c = initial_capacity in
  {
    head = 0;
    len = 0;
    arrival = Array.make c 0.0;
    born = Array.make c 0.0;
    entry = Array.make c 0;
    flow = Array.make c 0;
    psrc = Array.make c 0;
    size = Array.make c 0;
    dst = Array.make c no_dest;
    payload = Array.make c Net.Packet.Raw;
    ecn = Array.make c false;
  }

let create net =
  let c = initial_capacity in
  {
    net;
    out = create_box ();
    queue = create_box ();
    spare = create_box ();
    key = Array.make c 0.0;
    refs = Array.make c 0;
    key2 = Array.make c 0.0;
    refs2 = Array.make c 0;
    fresh = 0;
  }

let extend a len cap fill =
  let a' = Array.make cap fill in
  Array.blit a 0 a' 0 len;
  a'

let grow b =
  let n = b.len and cap = 2 * Array.length b.arrival in
  b.arrival <- extend b.arrival n cap 0.0;
  b.born <- extend b.born n cap 0.0;
  b.entry <- extend b.entry n cap 0;
  b.flow <- extend b.flow n cap 0;
  b.psrc <- extend b.psrc n cap 0;
  b.size <- extend b.size n cap 0;
  b.dst <- extend b.dst n cap no_dest;
  b.payload <- extend b.payload n cap Net.Packet.Raw;
  b.ecn <- extend b.ecn n cap false

(* The portal's deliver callback runs at serialization end on the
   sending shard (the portal link has zero propagation delay); the cut
   edge's real delay is added here, on the arrival stamp. *)
(* lint: hot push -- once per packet that crosses a cut edge: copies
   the wire fields into the outbox arrays and frees the record *)
let push m ~delay ~entry pkt =
  let b = m.out in
  let n = b.len in
  if n = Array.length b.arrival then grow b;
  b.arrival.(n) <- Net.Network.now m.net +. delay;
  b.born.(n) <- pkt.Net.Packet.born;
  b.entry.(n) <- entry;
  b.flow.(n) <- pkt.Net.Packet.flow;
  b.psrc.(n) <- pkt.Net.Packet.src;
  b.size.(n) <- pkt.Net.Packet.size;
  b.dst.(n) <- pkt.Net.Packet.dst;
  b.payload.(n) <- pkt.Net.Packet.payload;
  b.ecn.(n) <- pkt.Net.Packet.ecn;
  b.len <- n + 1;
  Net.Packet.Pool.release (Net.Network.pool m.net) pkt

let copy src i dst =
  let n = dst.len in
  if n = Array.length dst.arrival then grow dst;
  dst.arrival.(n) <- src.arrival.(i);
  dst.born.(n) <- src.born.(i);
  dst.entry.(n) <- src.entry.(i);
  dst.flow.(n) <- src.flow.(i);
  dst.psrc.(n) <- src.psrc.(i);
  dst.size.(n) <- src.size.(i);
  dst.dst.(n) <- src.dst.(i);
  dst.payload.(n) <- src.payload.(i);
  dst.ecn.(n) <- src.ecn.(i);
  dst.len <- n + 1

(* --- the barrier merge ---------------------------------------------- *)

(* End of the nondecreasing run of [key] that starts at [lo]. *)
let run_end (key : float array) lo n =
  let i = ref (lo + 1) in
  while !i < n && key.(!i - 1) <= key.(!i) do
    incr i
  done;
  !i

(* Stable merge of the runs [lo, mid) and [mid, hi): a tie takes the
   left, earlier entry. *)
let merge_runs (k : float array) (r : int array) (k' : float array)
    (r' : int array) lo mid hi =
  let i = ref lo and j = ref mid in
  for o = lo to hi - 1 do
    if !j >= hi || (!i < mid && k.(!i) <= k.(!j)) then begin
      k'.(o) <- k.(!i);
      r'.(o) <- r.(!i);
      incr i
    end
    else begin
      k'.(o) <- k.(!j);
      r'.(o) <- r.(!j);
      incr j
    end
  done

(* Stable sort of the fresh batch by arrival: adjacent nondecreasing
   runs merge pairwise, pass after pass, until one run is left.  The
   batch arrives in (source shard, sequence) order, so stability gives
   the (arrival, source shard, sequence) merge order.  With uniform cut
   delays each source's messages are already in arrival order, so [r]
   sources cost at most [log2 r] passes. *)
let sort_fresh m =
  let n = m.fresh in
  let sorted = ref (run_end m.key 0 n >= n) in
  while not !sorted do
    let lo = ref 0 and merged = ref 0 in
    while !lo < n do
      let mid = run_end m.key !lo n in
      let hi = if mid < n then run_end m.key mid n else n in
      merge_runs m.key m.refs m.key2 m.refs2 !lo mid hi;
      incr merged;
      lo := hi
    done;
    let k = m.key and r = m.refs in
    m.key <- m.key2;
    m.refs <- m.refs2;
    m.key2 <- k;
    m.refs2 <- r;
    sorted := !merged <= 1
  done

let add_fresh m src i r =
  let n = m.fresh in
  if n = Array.length m.key then begin
    m.key <- extend m.key n (2 * n) 0.0;
    m.refs <- extend m.refs n (2 * n) 0;
    m.key2 <- Array.make (2 * n) 0.0;
    m.refs2 <- Array.make (2 * n) 0
  end;
  m.key.(n) <- src.arrival.(i);
  m.refs.(n) <- r;
  m.fresh <- n + 1

(* Pending imports come before fresh ones at equal arrival: they were
   scheduled at an earlier barrier and hold smaller event ids. *)
let merge_into_queue ms m =
  let shards = Array.length ms in
  let q = m.queue and s = m.spare in
  s.head <- 0;
  s.len <- 0;
  let i = ref q.head and j = ref 0 in
  while !i < q.len || !j < m.fresh do
    if !j >= m.fresh || (!i < q.len && q.arrival.(!i) <= m.key.(!j)) then begin
      copy q !i s;
      incr i
    end
    else begin
      let r = m.refs.(!j) in
      copy ms.(r mod shards).out (r / shards) s;
      incr j
    end
  done;
  m.spare <- q;
  m.queue <- s

let exchange ms ~owner =
  let shards = Array.length ms in
  for s = 0 to shards - 1 do
    let o = ms.(s).out in
    for i = 0 to o.len - 1 do
      add_fresh ms.(owner.(o.entry.(i))) o i ((i * shards) + s)
    done
  done;
  for d = 0 to shards - 1 do
    let m = ms.(d) in
    if m.fresh > 0 then begin
      sort_fresh m;
      merge_into_queue ms m
    end
  done;
  for s = 0 to shards - 1 do
    ms.(s).out.len <- 0
  done

(* --- import --------------------------------------------------------- *)

let schedule m action =
  let sched = Net.Network.scheduler m.net in
  for j = 0 to m.fresh - 1 do
    ignore (Sim.Scheduler.schedule_at sched m.key.(j) action : int)
  done;
  m.fresh <- 0

(* lint: hot import -- the one event action behind every cross-shard
   arrival on a shard: the queue's head is the import that fires *)
let import m =
  let q = m.queue in
  let i = q.head in
  if !Sim.Invariant.enabled then
    Sim.Invariant.require
      (i < q.len && q.arrival.(i) = Net.Network.now m.net)
      (fun () ->
        Printf.sprintf
          "Mailbox.import: queue head %d of %d does not arrive at the \
           clock %g"
          i q.len (Net.Network.now m.net));
  q.head <- i + 1;
  let pkt =
    Net.Network.import_packet m.net ~flow:q.flow.(i) ~src:q.psrc.(i)
      ~dst:q.dst.(i) ~size:q.size.(i) ~payload:q.payload.(i) ~born:q.born.(i)
      ~ecn:q.ecn.(i)
  in
  Net.Node.receive (Net.Network.node m.net q.entry.(i)) pkt
