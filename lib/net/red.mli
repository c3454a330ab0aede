(** Random Early Detection gateway discipline (Floyd & Jacobson 1993).

    The average queue size is an EWMA of the instantaneous queue,
    corrected for idle periods; between the two thresholds each arrival
    is dropped with a probability that grows both with the average
    queue and with the number of packets admitted since the last drop,
    which is what spreads drops proportionally across flows — the
    property the paper's Theorem I relies on. *)

type params = {
  min_th : float;  (** packets *)
  max_th : float;  (** packets *)
  w_q : float;  (** EWMA weight, NS2 default 0.002 *)
  max_p : float;  (** drop probability at [max_th], NS2 default 0.1 *)
  mean_pkt_time : float;
      (** Transmission time of a typical packet; used to age the average
          across idle periods. *)
  ecn : bool;
      (** Mark instead of dropping in the probabilistic band (RFC-3168
          style); arrivals above [max_th] and buffer overflows still
          drop. *)
}

val default_params : mean_pkt_time:float -> params
(** The paper's setup: min 5, max 15, NS2 defaults elsewhere. *)

type t

val create : params -> rng:Sim.Rng.t -> t

val set_registry : t -> Obs.Registry.t option -> id:string -> unit
(** Install (or remove) instrumentation: a ["red.<id>.avg_queue"]
    series sampled on every arrival decision, plus
    ["red.<id>.early_drops"] and ["red.<id>.marks"] counters.  Probing
    is passive — decisions and RNG draws are unaffected. *)

val decide : t -> now:float -> qlen:int -> [ `Admit | `Drop | `Mark ]
(** Per-arrival decision given the instantaneous queue length; [`Mark]
    only occurs with {!params.ecn} set. *)

val note_empty : t -> now:float -> unit
(** Record that the queue just went idle (needed for idle aging). *)

type state = {
  s_avg : float;
  s_count : int;
  s_q_time : float;
  s_idle : bool;
  s_drops : int;
  s_marks : int;
}
(** Complete mutable gateway state.  The RNG is shared with the owning
    link, which captures it separately. *)

val capture : t -> state

val restore : t -> state -> unit
