(** Table renderers reproducing the layout of the paper's figures.
    Shared by the CLI ([bin/rla_sim]) and the benchmark harness. *)

val print_sharing_table :
  Format.formatter -> title:string -> Sharing.result list -> unit
(** Figures 7 / 9: one column per case, RLA / WTCP / BTCP blocks. *)

val print_signal_table : Format.formatter -> Sharing.result list -> unit
(** Figure 8: per-branch congestion-signal statistics. *)

val print_diff_rtt_table : Format.formatter -> Diff_rtt.result list -> unit
(** Figure 10. *)

val print_multi_session : Format.formatter -> Multi_session.result -> unit
(** Section 5.2. *)

val print_validation : Format.formatter -> Validation.point list -> unit
(** Equation 1: measured vs predicted PA windows. *)

val print_baseline_matrix :
  Format.formatter -> Baseline_fairness.result list -> unit

val print_ablation :
  Format.formatter -> title:string -> Ablation.row list -> unit

val print_drift_field :
  Format.formatter -> Analysis.Particle.field_point list -> unit
(** Figure 4 as a coarse ASCII arrow field. *)

val print_particle_run : Format.formatter -> Analysis.Particle.run_stats -> unit
(** Figure 5: the occupancy density plus its summary statistics. *)

val print_buffer_dynamics :
  Format.formatter -> Buffer_dynamics.result list -> unit
(** Section 3.1: buffer-period statistics of a drop-tail bottleneck. *)

val proposition_rows :
  seed:int ->
  steps:int ->
  (int * float array * float * float * float * float) list
(** The six Proposition check rows (two to 27 receivers, equal and
    skewed congestion) for {!print_proposition_table}: the drift-model
    PA window, a [steps]-long Monte-Carlo window average drawn from one
    generator seeded with [seed], and the equation-2 bounds. *)

val print_proposition_table :
  Format.formatter ->
  (int * float array * float * float * float * float) list ->
  unit
(** Proposition check rows:
    (n, ps, drift-model PA window, Monte-Carlo mean window, lower,
    upper).  The bound is checked against the PA window — the
    quantity equation 2 constrains; the Monte-Carlo sample mean sits
    slightly above it because the window distribution is skewed. *)
