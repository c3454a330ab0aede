let hr ppf width = Format.fprintf ppf "%s@." (String.make width '-')

let print_sharing_table ppf ~title results =
  let width = 22 + (11 * List.length results) in
  Format.fprintf ppf "@.%s@." title;
  hr ppf width;
  Format.fprintf ppf "%-22s" "case";
  List.iteri (fun i _ -> Format.fprintf ppf "%11d" (i + 1)) results;
  Format.fprintf ppf "@.%-22s" "most congested";
  List.iter
    (fun r ->
      Format.fprintf ppf "%11s" (Tree.case_name r.Sharing.config.Sharing.case))
    results;
  Format.fprintf ppf "@.";
  hr ppf width;
  let frow label f =
    Format.fprintf ppf "%-22s" label;
    List.iter (fun r -> Format.fprintf ppf "%11.1f" (f r)) results;
    Format.fprintf ppf "@."
  in
  let f3row label f =
    Format.fprintf ppf "%-22s" label;
    List.iter (fun r -> Format.fprintf ppf "%11.3f" (f r)) results;
    Format.fprintf ppf "@."
  in
  let irow label f =
    Format.fprintf ppf "%-22s" label;
    List.iter (fun r -> Format.fprintf ppf "%11d" (f r)) results;
    Format.fprintf ppf "@."
  in
  frow "RLA thrput (pkt/s)" (fun r -> r.Sharing.rla.Rla.Sender.send_rate);
  frow "RLA goodput (all rcv)" (fun r -> r.Sharing.rla.Rla.Sender.throughput);
  frow "RLA cwnd" (fun r -> r.Sharing.rla.Rla.Sender.cwnd_avg);
  f3row "RLA RTT (s)" (fun r -> r.Sharing.rla.Rla.Sender.rtt_avg);
  f3row "RLA RTT all-rcv (s)" (fun r -> r.Sharing.rla.Rla.Sender.rtt_all_avg);
  irow "RLA #cong signals" (fun r ->
      r.Sharing.rla.Rla.Sender.congestion_signals);
  irow "RLA #wnd cut" (fun r -> r.Sharing.rla.Rla.Sender.window_cuts);
  irow "RLA #forced cut" (fun r -> r.Sharing.rla.Rla.Sender.forced_cuts);
  hr ppf width;
  frow "WTCP thrput (pkt/s)" (fun r -> r.Sharing.wtcp.Tcp.Sender.send_rate);
  frow "WTCP cwnd" (fun r -> r.Sharing.wtcp.Tcp.Sender.cwnd_avg);
  f3row "WTCP RTT (s)" (fun r -> r.Sharing.wtcp.Tcp.Sender.rtt_avg);
  irow "WTCP #wnd cut" (fun r -> r.Sharing.wtcp.Tcp.Sender.window_cuts);
  hr ppf width;
  frow "BTCP thrput (pkt/s)" (fun r -> r.Sharing.btcp.Tcp.Sender.send_rate);
  frow "BTCP cwnd" (fun r -> r.Sharing.btcp.Tcp.Sender.cwnd_avg);
  f3row "BTCP RTT (s)" (fun r -> r.Sharing.btcp.Tcp.Sender.rtt_avg);
  irow "BTCP #wnd cut" (fun r -> r.Sharing.btcp.Tcp.Sender.window_cuts);
  hr ppf width;
  frow "RLA/WTCP ratio" (fun r -> r.Sharing.ratio);
  f3row "Jain index (all)" (fun r -> r.Sharing.jain);
  Format.fprintf ppf "%-22s" "essentially fair";
  List.iter
    (fun r ->
      Format.fprintf ppf "%11s" (if r.Sharing.essentially_fair then "yes" else "NO"))
    results;
  Format.fprintf ppf "@.";
  hr ppf width

let print_group ppf label (g : Sharing.group_stat) =
  Format.fprintf ppf "  %-18s worst %6d   best %6d   average %8.1f@." label
    g.Sharing.worst g.Sharing.best g.Sharing.average

let print_signal_table ppf results =
  Format.fprintf ppf
    "@.Figure 8 — congestion signals per branch (RLA) vs window cuts (TCP)@.";
  hr ppf 64;
  List.iteri
    (fun i r ->
      Format.fprintf ppf "case %d (%s):@." (i + 1)
        (Tree.case_name r.Sharing.config.Sharing.case);
      (match r.Sharing.rla_signals_rest with
      | None ->
          print_group ppf "RLA all links" r.Sharing.rla_signals_congested;
          print_group ppf "TCP all links" r.Sharing.tcp_cuts_congested
      | Some rest ->
          print_group ppf "RLA more congested" r.Sharing.rla_signals_congested;
          print_group ppf "RLA less congested" rest;
          print_group ppf "TCP more congested" r.Sharing.tcp_cuts_congested;
          (match r.Sharing.tcp_cuts_rest with
          | Some tcp_rest -> print_group ppf "TCP less congested" tcp_rest
          | None -> ())))
    results;
  hr ppf 64

let print_diff_rtt_table ppf results =
  Format.fprintf ppf
    "@.Figure 10 — generalized RLA with different round-trip times@.";
  hr ppf 96;
  Format.fprintf ppf "%-4s %-14s %28s %24s %24s@." "case" "bottlenecks"
    "RLA thr/cwnd/RTT/#sig/#cut" "WTCP thr/cwnd/#cut" "BTCP thr/cwnd/#cut";
  List.iteri
    (fun i r ->
      let rla = r.Diff_rtt.rla in
      let w = r.Diff_rtt.wtcp and b = r.Diff_rtt.btcp in
      Format.fprintf ppf "%-4d %-14s %8.1f/%5.1f/%5.3f/%5d/%4d %11.1f/%5.1f/%5d %11.1f/%5.1f/%5d@."
        (i + 1)
        (Tree.case_name r.Diff_rtt.config.Diff_rtt.case)
        rla.Rla.Sender.send_rate rla.Rla.Sender.cwnd_avg
        rla.Rla.Sender.rtt_avg rla.Rla.Sender.congestion_signals
        rla.Rla.Sender.window_cuts w.Tcp.Sender.send_rate
        w.Tcp.Sender.cwnd_avg w.Tcp.Sender.window_cuts
        b.Tcp.Sender.send_rate b.Tcp.Sender.cwnd_avg
        b.Tcp.Sender.window_cuts)
    results;
  hr ppf 96

let print_multi_session ppf r =
  Format.fprintf ppf "@.Section 5.2 — two overlapping multicast sessions@.";
  hr ppf 64;
  let s1 = r.Multi_session.session1 and s2 = r.Multi_session.session2 in
  Format.fprintf ppf "session 1: thrput %7.1f pkt/s   cwnd %6.1f@."
    s1.Rla.Sender.send_rate s1.Rla.Sender.cwnd_avg;
  Format.fprintf ppf "session 2: thrput %7.1f pkt/s   cwnd %6.1f@."
    s2.Rla.Sender.send_rate s2.Rla.Sender.cwnd_avg;
  Format.fprintf ppf "throughput ratio %5.2f   cwnd ratio %5.2f@."
    r.Multi_session.throughput_ratio r.Multi_session.cwnd_ratio;
  Format.fprintf ppf "background TCP: worst %7.1f   best %7.1f pkt/s@."
    r.Multi_session.wtcp.Tcp.Sender.throughput
    r.Multi_session.btcp.Tcp.Sender.throughput;
  hr ppf 64

let print_validation ppf points =
  Format.fprintf ppf
    "@.Equation 1 — PA window sqrt(2(1-p)/p) vs simulated TCP@.";
  hr ppf 72;
  Format.fprintf ppf "%8s %14s %14s %9s %12s %12s@." "p" "cwnd (meas)"
    "cwnd (model)" "ratio" "thr (meas)" "thr (model)";
  List.iter
    (fun pt ->
      Format.fprintf ppf "%8.4f %14.2f %14.2f %9.2f %12.1f %12.1f@."
        pt.Validation.p pt.Validation.measured_cwnd
        pt.Validation.predicted_cwnd pt.Validation.ratio
        pt.Validation.measured_throughput pt.Validation.predicted_throughput)
    points;
  hr ppf 72

let print_baseline_matrix ppf results =
  Format.fprintf ppf
    "@.Baselines — multicast scheme vs TCP through one bottleneck (fair share = 100 pkt/s)@.";
  hr ppf 76;
  Format.fprintf ppf "%-10s %-6s %12s %12s %12s %12s %8s@." "gateway" "scheme"
    "mcast pkt/s" "tcp mean" "tcp min" "tcp max" "ratio";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-10s %-6s %12.1f %12.1f %12.1f %12.1f %8.2f@."
        (Scenario.gateway_name r.Baseline_fairness.config.Baseline_fairness.gateway)
        (Baseline_fairness.scheme_name
           r.Baseline_fairness.config.Baseline_fairness.scheme)
        r.Baseline_fairness.mcast_throughput r.Baseline_fairness.tcp_mean
        r.Baseline_fairness.tcp_min r.Baseline_fairness.tcp_max
        r.Baseline_fairness.ratio)
    results;
  hr ppf 76

let print_ablation ppf ~title rows =
  Format.fprintf ppf "@.Ablation — %s@." title;
  hr ppf 88;
  Format.fprintf ppf "%-28s %10s %10s %7s %7s %7s %7s@." "variant" "RLA pkt/s"
    "WTCP" "ratio" "#sig" "#cut" "#forced";
  List.iter
    (fun r ->
      Format.fprintf ppf "%-28s %10.1f %10.1f %7.2f %7d %7d %7d@."
        r.Ablation.variant.Ablation.label r.Ablation.rla_throughput
        r.Ablation.wtcp_throughput r.Ablation.ratio
        r.Ablation.congestion_signals r.Ablation.window_cuts
        r.Ablation.forced_cuts)
    rows;
  hr ppf 88

(* Render the drift field as one glyph per grid point: '+' both grow,
   arrows when shrinking along an axis, 'v' both shrink. *)
let print_drift_field ppf field =
  Format.fprintf ppf "@.Figure 4 — drift field of two competing cwnds@.";
  let xs =
    List.sort_uniq Float.compare (List.map (fun p -> p.Analysis.Particle.x) field)
  in
  let ys =
    List.rev
      (List.sort_uniq Float.compare
         (List.map (fun p -> p.Analysis.Particle.y) field))
  in
  List.iter
    (fun y ->
      Format.fprintf ppf "%6.1f " y;
      List.iter
        (fun x ->
          match
            List.find_opt
              (fun p -> p.Analysis.Particle.x = x && p.Analysis.Particle.y = y)
              field
          with
          | None -> Format.fprintf ppf " "
          | Some p ->
              let glyph =
                match (p.Analysis.Particle.dx >= 0.0, p.Analysis.Particle.dy >= 0.0) with
                | true, true -> '+'
                | false, false -> 'v'
                | true, false -> '>'
                | false, true -> '<'
              in
              Format.fprintf ppf "%c " glyph)
        xs;
      Format.fprintf ppf "@.")
    ys;
  Format.fprintf ppf "       ('+' both windows grow, 'v' both shrink)@."

let print_particle_run ppf stats =
  Format.fprintf ppf "@.Figure 5 — occupancy density of (cwnd1, cwnd2)@.";
  Stats.Density.pp ppf stats.Analysis.Particle.density;
  let cx, cy = stats.Analysis.Particle.centroid in
  Format.fprintf ppf
    "mean w1 %.1f   mean w2 %.1f   mean |w1-w2| %.1f   centroid (%.1f, %.1f)@."
    stats.Analysis.Particle.mean_w1 stats.Analysis.Particle.mean_w2
    stats.Analysis.Particle.mean_abs_diff cx cy;
  Format.fprintf ppf "probability mass near the fair point: %.2f@."
    stats.Analysis.Particle.mass_near_fair_point

let print_buffer_dynamics ppf results =
  Format.fprintf ppf
    "@.Section 3.1 — drop episodes at a drop-tail bottleneck under TCP@.";
  hr ppf 100;
  Format.fprintf ppf "%6s %10s %9s %7s %10s %12s %10s %13s %10s@." "flows"
    "mu pkt/s" "episodes" "drops" "drops/ep" "episode(s)" "gap(s)"
    "episode/2RTT" "gap/2RTT";
  List.iter
    (fun r ->
      Format.fprintf ppf
        "%6d %10.0f %9d %7d %10.1f %12.3f %10.2f %13.2f %10.1f@."
        r.Buffer_dynamics.config.Buffer_dynamics.n_tcp
        r.Buffer_dynamics.config.Buffer_dynamics.mu_pkts
        r.Buffer_dynamics.episodes r.Buffer_dynamics.drops
        r.Buffer_dynamics.drops_per_episode
        r.Buffer_dynamics.mean_episode_length r.Buffer_dynamics.mean_gap
        r.Buffer_dynamics.episode_over_2rtt r.Buffer_dynamics.gap_over_2rtt)
    results;
  Format.fprintf ppf
    "(the paper: drops cluster within <= ~2 RTT; episodes are much@.";
  Format.fprintf ppf
    " further apart — the basis for grouping losses within 2*srtt)@.";
  hr ppf 100

let proposition_rows ~seed ~steps =
  let rng = Sim.Rng.create seed in
  List.map
    (fun (n, ps) ->
      let w_model = Analysis.Rla_model.pa_window_independent ~ps in
      let w_mc = Analysis.Rla_model.simulate_window ~rng ~ps ~steps in
      let p_max = Array.fold_left Stdlib.max 0.0 ps in
      let lo, hi = Analysis.Rla_model.proposition_bounds ~n ~p_max in
      (n, ps, w_model, w_mc, lo, hi))
    [
      (2, [| 0.01; 0.01 |]);
      (2, [| 0.02; 0.002 |]);
      (4, Array.make 4 0.02);
      (8, Array.make 8 0.01);
      (27, Array.make 27 0.01);
      (27, Array.append [| 0.03 |] (Array.make 26 0.003));
    ]

let print_proposition_table ppf rows =
  Format.fprintf ppf
    "@.Proposition (eq. 2) — RLA PA window between TCP's and sqrt(n) x TCP's@.";
  hr ppf 72;
  Format.fprintf ppf "%4s %10s %10s %10s %10s %10s %8s@." "n" "p_max"
    "W (model)" "W (MC)" "lower" "upper" "holds";
  List.iter
    (fun (n, ps, w_model, w_mc, lo, hi) ->
      let p_max = Array.fold_left Stdlib.max 0.0 ps in
      Format.fprintf ppf "%4d %10.4f %10.2f %10.2f %10.2f %10.2f %8s@." n
        p_max w_model w_mc lo hi
        (if Analysis.Rla_model.satisfies_proposition ~n ~ps ~window:w_model
         then "yes"
         else "NO"))
    rows;
  hr ppf 72
