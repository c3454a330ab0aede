(** The paper's motivating claim (section 1): rate-based multicast
    congestion control with evenly spaced packets cannot share a
    drop-tail bottleneck fairly with TCP, whereas the window-based RLA
    can; RED narrows the gap for everyone.

    Topology: a single bottleneck link from the source's gateway, three
    receivers behind it on fast links, three competing TCP flows.
    Fair share of the 400 pkt/s bottleneck is 100 pkt/s per session. *)

type scheme =
  | Scheme_rla
  | Scheme_ltrc
  | Scheme_mbfc
  | Scheme_cbr
  | Scheme_rl_rate
      (** Rate-based random listening (the paper's section-6 idea). *)

val scheme_name : scheme -> string

type config = {
  gateway : Scenario.gateway;
  scheme : scheme;
  duration : float;
  warmup : float;
  seed : int;
  bottleneck_share : float;  (** Fair per-session share, pkt/s. *)
  n_tcp : int;
  cbr_rate : float;  (** Rate for the CBR reference, pkt/s. *)
}

type result = {
  config : config;
  mcast_throughput : float;
      (** Worst receiver's goodput (RLA: all-receiver goodput). *)
  tcp_mean : float;
  tcp_min : float;
  tcp_max : float;
  ratio : float;  (** multicast / mean TCP. *)
}

val run_matrix :
  ?duration:float -> ?seed:int -> unit -> result list
(** All five schemes under both gateway types (ten rows). *)
