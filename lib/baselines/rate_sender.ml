type policy =
  | Fixed
  | Ltrc of { loss_threshold : float; ewma_weight : float; refractory : float }
  | Mbfc of {
      loss_threshold : float;
      population_threshold : float;
      refractory : float;
    }
  | Random_listening of { loss_threshold : float; refractory : float }

type config = {
  initial_rate : float;
  min_rate : float;
  max_rate : float;
  rtt_estimate : float;
  report_period : float;
  data_size : int;
  policy : policy;
}

let ltrc = Ltrc { loss_threshold = 0.02; ewma_weight = 0.25; refractory = 1.0 }

let mbfc =
  Mbfc { loss_threshold = 0.02; population_threshold = 0.25; refractory = 1.0 }

let random_listening =
  Random_listening { loss_threshold = 0.02; refractory = 1.0 }

let default_config policy =
  {
    initial_rate = 10.0;
    min_rate = 1.0;
    max_rate = 1.0e5;
    rtt_estimate = 0.25;
    report_period = 1.0;
    data_size = Wire.data_size;
    policy;
  }

type rcvr_state = {
  addr : Net.Packet.addr;
  loss_ewma : Stats.Ewma.t;
  mutable last_report_loss : float;
  mutable reports : int;
}

type t = {
  net : Net.Network.t;
  config : config;
  src : Net.Packet.addr;
  flow : Net.Packet.flow;
  group : Net.Packet.group;
  rcvrs : rcvr_state array;
  rng : Sim.Rng.t;
  endpoints : Report_receiver.t list;
  mutable rate : float;
  mutable next_seq : int;
  mutable sent : int;
  mutable cuts : int;
  mutable last_cut : float;
  mutable meas_time : float;
}

let rate t = t.rate

let cuts t = t.cuts

let sent t = t.sent

let endpoints t = t.endpoints

let now t = Net.Network.now t.net

let set_rate t r =
  t.rate <- Stdlib.max t.config.min_rate (Stdlib.min t.config.max_rate r)

let reset_measurement t =
  t.meas_time <- now t;
  List.iter (fun ep -> Report_receiver.reset_measurement ep ~now:(now t)) t.endpoints

let min_delivered_rate t =
  List.fold_left
    (fun acc ep -> Stdlib.min acc (Report_receiver.delivered_rate ep ~since:t.meas_time))
    infinity t.endpoints

let cut_rate t ~refractory =
  if now t -. t.last_cut >= refractory then begin
    set_rate t (t.rate /. 2.0);
    t.cuts <- t.cuts + 1;
    t.last_cut <- now t
  end

let on_report t ~rcvr ~loss_rate =
  match Array.find_opt (fun r -> r.addr = rcvr) t.rcvrs with
  | None -> ()
  | Some r -> (
      r.reports <- r.reports + 1;
      r.last_report_loss <- loss_rate;
      match t.config.policy with
      | Fixed -> ()
      | Ltrc { loss_threshold; ewma_weight = _; refractory } ->
          Stats.Ewma.update r.loss_ewma loss_rate;
          if Stats.Ewma.value r.loss_ewma > loss_threshold then
            cut_rate t ~refractory
      | Mbfc { loss_threshold; population_threshold; refractory } ->
          (* Evaluate the population condition on every report using
             each receiver's most recent monitor period. *)
          let congested =
            Array.fold_left
              (fun acc r ->
                if r.reports > 0 && r.last_report_loss > loss_threshold then
                  acc + 1
                else acc)
              0 t.rcvrs
          in
          let fraction =
            float_of_int congested /. float_of_int (Array.length t.rcvrs)
          in
          if fraction > population_threshold then cut_rate t ~refractory
      | Random_listening { loss_threshold; refractory } ->
          (* The paper's conclusion: apply random listening to a
             rate-based controller.  A congested report triggers a
             halving with probability 1/(currently congested
             receivers). *)
          if loss_rate > loss_threshold then begin
            let congested =
              Array.fold_left
                (fun acc r ->
                  if r.reports > 0 && r.last_report_loss > loss_threshold then
                    acc + 1
                  else acc)
                0 t.rcvrs
            in
            let n = Stdlib.max 1 congested in
            if Sim.Rng.uniform t.rng <= 1.0 /. float_of_int n then
              cut_rate t ~refractory
          end)

let send_data t =
  let seq = t.next_seq in
  t.next_seq <- seq + 1;
  t.sent <- t.sent + 1;
  let pkt =
    Net.Network.make_packet t.net ~flow:t.flow ~src:t.src
      ~dst:(Net.Packet.Multicast t.group) ~size:t.config.data_size
      ~payload:(Wire.Rate_data { seq; sent_at = now t })
  in
  Net.Network.send t.net pkt

let create ~net ~src ~receivers config =
  if receivers = [] then invalid_arg "Rate_sender.create: no receivers";
  if config.initial_rate <= 0.0 then
    invalid_arg "Rate_sender.create: non-positive rate";
  let flow = Net.Network.fresh_flow net in
  let group = Net.Network.fresh_group net in
  Net.Network.install_multicast net ~group ~src ~members:receivers;
  let endpoints =
    List.map
      (fun node ->
        Report_receiver.create ~net ~node ~flow ~sender:src
          ~period:config.report_period)
      receivers
  in
  let ewma_weight =
    match config.policy with Ltrc { ewma_weight; _ } -> ewma_weight | _ -> 0.25
  in
  let t =
    {
      net;
      config;
      src;
      flow;
      group;
      rcvrs =
        Array.of_list
          (List.map
             (fun addr ->
               {
                 addr;
                 loss_ewma = Stats.Ewma.create ~weight:ewma_weight;
                 last_report_loss = 0.0;
                 reports = 0;
               })
             receivers);
      rng = Net.Network.fork_rng net;
      endpoints;
      rate = config.initial_rate;
      next_seq = 0;
      sent = 0;
      cuts = 0;
      last_cut = Net.Network.now net;
      meas_time = Net.Network.now net;
    }
  in
  Net.Node.attach (Net.Network.node net src) ~flow (fun pkt ->
      match pkt.Net.Packet.payload with
      | Wire.Rate_report { rcvr; loss_rate; _ } -> on_report t ~rcvr ~loss_rate
      | _ -> ());
  let sched = Net.Network.scheduler net in
  (* Evenly spaced transmissions at the current rate. *)
  let rec pace () =
    send_data t;
    ignore (Sim.Scheduler.schedule_after sched (1.0 /. t.rate) pace)
  in
  ignore
    (Sim.Scheduler.schedule_after sched
       (Sim.Rng.float (Net.Network.fork_rng net) (1.0 /. t.rate))
       pace);
  (* Linear increase: one packet per RTT added every RTT. *)
  (match config.policy with
  | Fixed -> ()
  | Ltrc _ | Mbfc _ | Random_listening _ ->
      let rec grow () =
        set_rate t (t.rate +. (1.0 /. config.rtt_estimate));
        ignore (Sim.Scheduler.schedule_after sched config.rtt_estimate grow)
      in
      ignore (Sim.Scheduler.schedule_after sched config.rtt_estimate grow));
  t
