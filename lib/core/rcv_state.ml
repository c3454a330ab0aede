type t = {
  addr : Net.Packet.addr;
  params : Params.t;
  session_start : float;
  board : Tcp.Scoreboard.t;
  srtt : Stats.Ewma.t;
  interval : Stats.Ewma.t;
  mutable cperiod_start : float;
  mutable last_signal : float;
  mutable signals : int;
  mutable acks : int;
  mutable active : bool;
}

let create ~addr ~params ~session_start ?(board_start = 0) () =
  {
    addr;
    params;
    session_start;
    board = Tcp.Scoreboard.create ~start:board_start ();
    srtt = Stats.Ewma.create ~weight:params.Params.srtt_weight;
    interval = Stats.Ewma.create ~weight:params.Params.interval_ewma_weight;
    cperiod_start = neg_infinity;
    last_signal = session_start;
    signals = 0;
    acks = 0;
    active = true;
  }

let addr t = t.addr

let board t = t.board

let active t = t.active

let deactivate t = t.active <- false

let srtt t = Stats.Ewma.value t.srtt

let observe_rtt t sample = Stats.Ewma.update t.srtt sample

let signals t = t.signals

let acks t = t.acks

let count_ack t = t.acks <- t.acks + 1

let register_losses t ~now =
  let window = t.params.Params.group_rtt_factor *. srtt t in
  if now -. t.cperiod_start <= window then false
  else begin
    t.cperiod_start <- now;
    (* The first signal's "interval" is measured from session start,
       which bootstraps the EWMA without a special case. *)
    Stats.Ewma.update t.interval (now -. t.last_signal);
    t.last_signal <- now;
    t.signals <- t.signals + 1;
    true
  end

let mean_signal_interval t ~now =
  if t.signals = 0 then infinity
  else
    (* Aging: a receiver silent for longer than its historical interval
       should not keep a stale "frequent loss" status. *)
    let interval = Stats.Ewma.value t.interval
    and silent = now -. t.last_signal in
    if interval >= silent then interval else silent

let is_troubled t ~now ~min_interval ~eta =
  t.signals > 0 && mean_signal_interval t ~now <= eta *. min_interval

type state = {
  s_board : Tcp.Scoreboard.state;
  s_srtt : Stats.Ewma.state;
  s_interval : Stats.Ewma.state;
  s_cperiod_start : float;
  s_last_signal : float;
  s_signals : int;
  s_acks : int;
  s_active : bool;
}

let capture t =
  {
    s_board = Tcp.Scoreboard.capture t.board;
    s_srtt = Stats.Ewma.capture t.srtt;
    s_interval = Stats.Ewma.capture t.interval;
    s_cperiod_start = t.cperiod_start;
    s_last_signal = t.last_signal;
    s_signals = t.signals;
    s_acks = t.acks;
    s_active = t.active;
  }

let restore t st =
  Tcp.Scoreboard.restore t.board st.s_board;
  Stats.Ewma.restore t.srtt st.s_srtt;
  Stats.Ewma.restore t.interval st.s_interval;
  t.cperiod_start <- st.s_cperiod_start;
  t.last_signal <- st.s_last_signal;
  t.signals <- st.s_signals;
  t.acks <- st.s_acks;
  t.active <- st.s_active
