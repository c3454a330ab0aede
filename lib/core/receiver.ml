type t = {
  net : Net.Network.t;
  node : Net.Node.t;
  flow : Net.Packet.flow;
  sender_unicast : Net.Packet.dest;  (* built once, not per ack *)
  rng : Sim.Rng.t;
  ack_jitter : float;
  (* Delayed acknowledgments in flight: event ids, echo timestamps and
     ECN bits in the first [n_pending] slots of parallel arrays, in no
     particular order.  The payload snapshot (cum/sack) happens at fire
     time, so only these two inputs need remembering.  Every delayed
     ack fires the one shared [ack_thunk], which finds its entry by
     [Sim.Scheduler.firing]: no closure, tuple or table cell per ack. *)
  mutable pa_ids : Sim.Scheduler.event_id array;
  mutable pa_echo : float array;
  mutable pa_ece : bool array;
  mutable n_pending : int;
  mutable ack_thunk : unit -> unit;
  ooo : (int, unit) Hashtbl.t;
  mutable recent : int list;
  mutable expected : int;
  mutable received_total : int;
  mutable duplicates : int;
  mutable rexmits_received : int;
}

let node_id t = Net.Node.id t.node

let block_around t seq =
  let lo = ref seq in
  while Hashtbl.mem t.ooo (!lo - 1) do
    decr lo
  done;
  let hi = ref (seq + 1) in
  while Hashtbl.mem t.ooo !hi do
    incr hi
  done;
  { Tcp.Wire.block_lo = !lo; block_hi = !hi }

(* A top-level loop rather than a local closure, so an ack with no
   holes to report builds nothing at all. *)
let rec build_blocks t acc seen = function
  | [] -> List.rev acc
  | _ when List.length acc >= Tcp.Wire.max_sack_blocks -> List.rev acc
  | rep :: rest ->
      if rep < t.expected || not (Hashtbl.mem t.ooo rep) then
        build_blocks t acc seen rest
      else begin
        let block = block_around t rep in
        if List.mem block.Tcp.Wire.block_lo seen then
          build_blocks t acc seen rest
        else
          build_blocks t (block :: acc) (block.Tcp.Wire.block_lo :: seen) rest
      end

let sack_blocks t = build_blocks t [] [] t.recent

(* Acknowledgments leave after a small random processing delay: an
   equal-RTT multicast tree would otherwise fire all receivers' acks at
   the same instant, and the synchronized burst picks the same overflow
   victims at the reverse bottleneck on every round (see
   {!Params.ack_jitter}).  The ack snapshot (cum/sack/echo) is taken at
   send time so it reflects everything received meanwhile. *)
let emit_ack t ~echo ~ece =
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:(Net.Node.id t.node)
      ~dst:t.sender_unicast ~size:Wire.ack_size
      ~payload:
        (Wire.Rla_ack
           {
             rcvr = Net.Node.id t.node;
             cum_ack = t.expected;
             blocks = sack_blocks t;
             echo;
             ece;
           })
  in
  Net.Network.send t.net pkt

let add_pending t id ~echo ~ece =
  let n = t.n_pending in
  if n = Array.length t.pa_ids then begin
    let cap = Stdlib.max 4 (2 * n) in
    let grow a fill =
      let b = Array.make cap fill in
      Array.blit a 0 b 0 n;
      b
    in
    t.pa_ids <- grow t.pa_ids (-1);
    t.pa_echo <- grow t.pa_echo 0.0;
    t.pa_ece <- grow t.pa_ece false
  end;
  t.pa_ids.(n) <- id;
  t.pa_echo.(n) <- echo;
  t.pa_ece.(n) <- ece;
  t.n_pending <- n + 1

(* The firing delayed ack: find its slot, move the last entry into it,
   then send. *)
let fire_pending t =
  let id = Sim.Scheduler.firing (Net.Network.scheduler t.net) in
  let i = ref 0 in
  while !i < t.n_pending && t.pa_ids.(!i) <> id do
    incr i
  done;
  let i = !i in
  if i = t.n_pending then
    invalid_arg
      (Printf.sprintf "Rla.Receiver: delayed ack event %d is not pending" id);
  let echo = t.pa_echo.(i) and ece = t.pa_ece.(i) in
  let last = t.n_pending - 1 in
  t.pa_ids.(i) <- t.pa_ids.(last);
  t.pa_echo.(i) <- t.pa_echo.(last);
  t.pa_ece.(i) <- t.pa_ece.(last);
  t.n_pending <- last;
  emit_ack t ~echo ~ece

let send_ack t ~echo ~ece =
  if t.ack_jitter <= 0.0 then emit_ack t ~echo ~ece
  else
    add_pending t ~echo ~ece
      (Sim.Scheduler.schedule_after
         (Net.Network.scheduler t.net)
         (Sim.Rng.float t.rng t.ack_jitter)
         t.ack_thunk)

(* [List.filter (fun r -> r >= bound)] without the per-call closure;
   an unchanged list comes back as itself. *)
let rec keep_from bound = function
  | [] -> []
  | r :: rest as l ->
      let kept = keep_from bound rest in
      if r < bound then kept else if kept == rest then l else r :: kept

(* [List.filter (fun r -> r <> v)], the same way. *)
let rec drop_value v = function
  | [] -> []
  | r :: rest as l ->
      let kept = drop_value v rest in
      if r = v then kept else if kept == rest then l else r :: kept

let on_data t ~seq ~sent_at ~rexmit ~ecn =
  t.received_total <- t.received_total + 1;
  if rexmit then t.rexmits_received <- t.rexmits_received + 1;
  if seq < t.expected || Hashtbl.mem t.ooo seq then
    t.duplicates <- t.duplicates + 1
  else if seq = t.expected then begin
    t.expected <- t.expected + 1;
    while Hashtbl.mem t.ooo t.expected do
      Hashtbl.remove t.ooo t.expected;
      t.expected <- t.expected + 1
    done;
    t.recent <- keep_from t.expected t.recent
  end
  else begin
    Hashtbl.replace t.ooo seq ();
    t.recent <- seq :: drop_value seq t.recent;
    if List.length t.recent > 4 * Tcp.Wire.max_sack_blocks then
      t.recent <-
        List.filteri (fun i _ -> i < 4 * Tcp.Wire.max_sack_blocks) t.recent
  end;
  send_ack t ~echo:sent_at ~ece:ecn

let create ~net ~node ~flow ~sender ?(ack_jitter = 0.002) ?(start = 0) () =
  let node = Net.Network.node net node in
  let t =
    {
      net;
      node;
      flow;
      sender_unicast = Net.Packet.Unicast sender;
      rng = Net.Network.fork_rng net;
      ack_jitter;
      pa_ids = [||];
      pa_echo = [||];
      pa_ece = [||];
      n_pending = 0;
      ack_thunk = ignore;
      ooo = Hashtbl.create 64;
      recent = [];
      expected = start;
      received_total = 0;
      duplicates = 0;
      rexmits_received = 0;
    }
  in
  t.ack_thunk <- (fun () -> fire_pending t);
  Net.Node.attach node ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Rla_data { seq; sent_at; rexmit } ->
          on_data t ~seq ~sent_at ~rexmit ~ecn:pkt.Net.Packet.ecn
      | _ -> ());
  t

(* --- checkpoint/restore -------------------------------------------- *)

type state = {
  s_rng : int64;
  s_ooo : int list;  (* ascending *)
  s_recent : int list;
  s_expected : int;
  s_received_total : int;
  s_duplicates : int;
  s_rexmits_received : int;
  s_pending_acks : (Sim.Scheduler.event_id * float * bool) list;
      (* (id, echo, ece), ascending id *)
}

let capture t =
  {
    s_rng = Sim.Rng.state t.rng;
    s_ooo =
      Hashtbl.fold (fun seq () acc -> seq :: acc) t.ooo []
      |> List.sort Int.compare;
    s_recent = t.recent;
    s_expected = t.expected;
    s_received_total = t.received_total;
    s_duplicates = t.duplicates;
    s_rexmits_received = t.rexmits_received;
    s_pending_acks =
      List.init t.n_pending (fun i -> (t.pa_ids.(i), t.pa_echo.(i), t.pa_ece.(i)))
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b);
  }

let restore t st =
  Sim.Rng.set_state t.rng st.s_rng;
  Hashtbl.reset t.ooo;
  List.iter (fun seq -> Hashtbl.replace t.ooo seq ()) st.s_ooo;
  t.recent <- st.s_recent;
  t.expected <- st.s_expected;
  t.received_total <- st.s_received_total;
  t.duplicates <- st.s_duplicates;
  t.rexmits_received <- st.s_rexmits_received;
  t.n_pending <- 0;
  let sched = Net.Network.scheduler t.net in
  List.iter
    (fun (id, echo, ece) ->
      add_pending t id ~echo ~ece;
      Sim.Scheduler.rearm sched ~id t.ack_thunk)
    st.s_pending_acks

module For_testing = struct
  let node_id = node_id
end
