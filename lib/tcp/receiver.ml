type window = { capacity : int; app_rate : float }

type t = {
  net : Net.Network.t;
  node : Net.Node.t;
  flow : Net.Packet.flow;
  peer : Net.Packet.addr;
  peer_unicast : Net.Packet.dest;  (* built once, not per ack *)
  reasm : Reassembly.t;
  mutable received_total : int;
  window : window option;
  local_options : Options.t;  (* offered at SYN time *)
  mutable t0 : float;  (* application drain epoch *)
  mutable wscale : int;  (* effective shift for the advertised field *)
  mutable sack_ok : bool;
  mutable rst_strict : bool;  (* RFC 5961 on; off = legacy in-window accept *)
  mutable closed : bool;  (* an accepted RST tore the connection down *)
  mutable syn_received : bool;
  mutable rst_accepted : int;
  mutable rst_challenged : int;
  mutable rst_dropped : int;
  mutable challenge_acks : int;
  mutable ghost_data : int;  (* data dropped by sequence validation *)
  mutable probes_received : int;
}

let received_total t = t.received_total

let set_rst_strict t v = t.rst_strict <- v

(* Honest senders never put data more than their configured window
   above the cumulative point; anything far beyond that is a blind
   injection, not reordering.  With no finite-window model we validate
   against a bound comfortably above any cwnd this repo configures, so
   hardening cannot reject honest traffic. *)
let default_validation_window = 1024

let validation_window t =
  match t.window with
  | Some w -> Int.max 1 w.capacity
  | None -> default_validation_window

(* The advertised-window field for the next ack: receive buffer minus
   what the application has not yet drained, scaled and clamped to the
   field width.  Drain is a deterministic function of simulated time
   (rate [app_rate] from epoch [t0]), so no consumption events are
   needed and replay stays byte-identical. *)
let rwnd_field t =
  match t.window with
  | None -> Wire.no_rwnd
  | Some w ->
      let drained =
        int_of_float (w.app_rate *. (Net.Network.now t.net -. t.t0))
      in
      let expected = Reassembly.expected t.reasm in
      let backlog = expected - Int.min expected drained in
      let avail =
        Int.max 0 (w.capacity - backlog - Reassembly.held t.reasm)
      in
      Int.min (avail lsr t.wscale) Wire.rwnd_field_max

let send_ack t ~echo ~ece =
  let blocks = if t.sack_ok then Reassembly.blocks t.reasm else [] in
  let cum_ack = Reassembly.expected t.reasm in
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow
      ~src:(Net.Node.id t.node) ~dst:t.peer_unicast ~size:Wire.ack_size
      ~payload:
        (Wire.Tcp_ack { cum_ack; blocks; echo; ece; rwnd = rwnd_field t })
  in
  Net.Network.send t.net pkt

(* A challenge ack (RFC 5961 §3.2) carries no timestamp echo — the
   negative sentinel tells the peer not to take an RTT sample. *)
let send_challenge_ack t =
  t.challenge_acks <- t.challenge_acks + 1;
  send_ack t ~echo:(-1.0) ~ece:false

let on_data t ~seq ~sent_at ~ecn =
  if not t.closed then begin
    t.received_total <- t.received_total + 1;
    let expected = Reassembly.expected t.reasm in
    if seq < expected - validation_window t
       || seq >= expected + validation_window t
    then begin
      (* Blind injection far outside the receive window: drop the
         payload, answer with a challenge ack (RFC 5961 §4 applied to
         data), never buffer. *)
      t.ghost_data <- t.ghost_data + 1;
      send_challenge_ack t
    end
    else begin
      Reassembly.accept t.reasm seq;
      send_ack t ~echo:sent_at ~ece:ecn
    end
  end

(* RFC 5961 §3.2 RST processing: exact-match sequence resets; an
   in-window but inexact sequence draws a challenge ack under strict
   validation (legacy stacks accept it — that laxity is what blind
   RST attacks exploit); anything outside the window is dropped. *)
let on_rst t ~seq =
  if not t.closed then begin
    let expected = Reassembly.expected t.reasm in
    if seq = expected then begin
      t.rst_accepted <- t.rst_accepted + 1;
      t.closed <- true
    end
    else if seq > expected && seq < expected + validation_window t then
      if t.rst_strict then begin
        t.rst_challenged <- t.rst_challenged + 1;
        send_challenge_ack t
      end
      else begin
        t.rst_accepted <- t.rst_accepted + 1;
        t.closed <- true
      end
    else t.rst_dropped <- t.rst_dropped + 1
  end

let on_syn t ~options ~sent_at =
  if not t.closed then
    match Options.decode options with
    | Error _ -> ()  (* unparseable SYN options: drop the segment *)
    | Ok offered ->
        let negotiated = Options.negotiate offered t.local_options in
        t.wscale <- negotiated.Options.wscale;
        t.sack_ok <- negotiated.Options.sack_ok;
        t.syn_received <- true;
        let pkt =
          Net.Network.make_packet t.net ~flow:t.flow
            ~src:(Net.Node.id t.node) ~dst:t.peer_unicast
            ~size:Wire.ack_size
            ~payload:
              (Wire.Tcp_syn_ack
                 {
                   options = Options.encode t.local_options;
                   rwnd = rwnd_field t;
                   sent_at;
                 })
        in
        Net.Network.send t.net pkt

let on_probe t ~sent_at =
  if not t.closed then begin
    t.probes_received <- t.probes_received + 1;
    (* A probe solicits a fresh window advertisement; the ack is a
       plain duplicate ack carrying the current field. *)
    send_ack t ~echo:sent_at ~ece:false
  end

type state = {
  s_ooo : int list;  (* ascending *)
  s_recent : int list;  (* recency order, as held *)
  s_expected : int;
  s_received_total : int;
  s_duplicates : int;
  s_t0 : float;
  s_wscale : int;
  s_sack_ok : bool;
  s_rst_strict : bool;
  s_closed : bool;
  s_syn_received : bool;
  s_rst_accepted : int;
  s_rst_challenged : int;
  s_rst_dropped : int;
  s_challenge_acks : int;
  s_ghost_data : int;
  s_probes_received : int;
}

let capture t =
  let r = Reassembly.capture t.reasm in
  {
    s_ooo = r.ooo;
    s_recent = r.recent;
    s_expected = r.expected;
    s_received_total = t.received_total;
    s_duplicates = r.duplicates;
    s_t0 = t.t0;
    s_wscale = t.wscale;
    s_sack_ok = t.sack_ok;
    s_rst_strict = t.rst_strict;
    s_closed = t.closed;
    s_syn_received = t.syn_received;
    s_rst_accepted = t.rst_accepted;
    s_rst_challenged = t.rst_challenged;
    s_rst_dropped = t.rst_dropped;
    s_challenge_acks = t.challenge_acks;
    s_ghost_data = t.ghost_data;
    s_probes_received = t.probes_received;
  }

let restore t st =
  Reassembly.restore t.reasm
    {
      ooo = st.s_ooo;
      recent = st.s_recent;
      expected = st.s_expected;
      duplicates = st.s_duplicates;
    };
  t.received_total <- st.s_received_total;
  t.t0 <- st.s_t0;
  t.wscale <- st.s_wscale;
  t.sack_ok <- st.s_sack_ok;
  t.rst_strict <- st.s_rst_strict;
  t.closed <- st.s_closed;
  t.syn_received <- st.s_syn_received;
  t.rst_accepted <- st.s_rst_accepted;
  t.rst_challenged <- st.s_rst_challenged;
  t.rst_dropped <- st.s_rst_dropped;
  t.challenge_acks <- st.s_challenge_acks;
  t.ghost_data <- st.s_ghost_data;
  t.probes_received <- st.s_probes_received

let create ?window ?(wscale = 0) ?(rst_strict = true) ~net ~node ~flow ~peer ()
    =
  if wscale < 0 || wscale > Options.max_wscale then
    invalid_arg "Tcp.Receiver.create: bad wscale";
  (match window with
  | Some w when w.capacity < 1 || w.app_rate < 0.0 ->
      invalid_arg "Tcp.Receiver.create: bad window"
  | _ -> ());
  let node = Net.Network.node net node in
  let t =
    {
      net;
      node;
      flow;
      peer;
      peer_unicast = Net.Packet.Unicast peer;
      reasm = Reassembly.create ();
      received_total = 0;
      window;
      local_options = Options.make ~mss:Wire.data_size ~wscale ~sack_ok:true;
      t0 = Net.Network.now net;
      wscale;
      sack_ok = true;
      rst_strict;
      closed = false;
      syn_received = false;
      rst_accepted = 0;
      rst_challenged = 0;
      rst_dropped = 0;
      challenge_acks = 0;
      ghost_data = 0;
      probes_received = 0;
    }
  in
  Net.Node.attach node ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Tcp_data { seq; sent_at } ->
          on_data t ~seq ~sent_at ~ecn:pkt.Net.Packet.ecn
      | Wire.Tcp_syn { options; sent_at } -> on_syn t ~options ~sent_at
      | Wire.Tcp_rst { seq } -> on_rst t ~seq
      | Wire.Tcp_probe { seq = _; sent_at } -> on_probe t ~sent_at
      | _ -> ());
  t
