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
  reasm : Tcp.Reassembly.t;
  mutable received_total : int;
  mutable rexmits_received : int;
}

let node_id t = Net.Node.id t.node

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
             cum_ack = Tcp.Reassembly.expected t.reasm;
             blocks = Tcp.Reassembly.blocks t.reasm;
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

let on_data t ~seq ~sent_at ~rexmit ~ecn =
  t.received_total <- t.received_total + 1;
  if rexmit then t.rexmits_received <- t.rexmits_received + 1;
  Tcp.Reassembly.accept t.reasm seq;
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
      reasm = Tcp.Reassembly.create ~start ();
      received_total = 0;
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
  let r = Tcp.Reassembly.capture t.reasm in
  {
    s_rng = Sim.Rng.state t.rng;
    s_ooo = r.ooo;
    s_recent = r.recent;
    s_expected = r.expected;
    s_received_total = t.received_total;
    s_duplicates = r.duplicates;
    s_rexmits_received = t.rexmits_received;
    s_pending_acks =
      List.init t.n_pending (fun i -> (t.pa_ids.(i), t.pa_echo.(i), t.pa_ece.(i)))
      |> List.sort (fun (a, _, _) (b, _, _) -> Int.compare a b);
  }

let restore t st =
  Sim.Rng.set_state t.rng st.s_rng;
  Tcp.Reassembly.restore t.reasm
    {
      ooo = st.s_ooo;
      recent = st.s_recent;
      expected = st.s_expected;
      duplicates = st.s_duplicates;
    };
  t.received_total <- st.s_received_total;
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
