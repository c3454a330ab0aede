(** Paced (rate-based) multicast sender with pluggable congestion
    control policy.

    This is the family of schemes the paper's introduction argues
    cannot be TCP-fair through drop-tail gateways: evenly spaced
    packets, rate halved on a congestion indication derived from
    periodic receiver loss reports, rate increased linearly by roughly
    one packet per round-trip time otherwise. *)

type policy =
  | Fixed  (** Constant rate (CBR). *)
  | Ltrc of {
      loss_threshold : float;
          (** Cut when some receiver's EWMA loss rate exceeds this. *)
      ewma_weight : float;
      refractory : float;  (** No second cut within this many seconds. *)
    }
      (** Loss-tolerant rate controller (Montgomery 1997): track the
          most-congested receiver's averaged loss rate against a
          threshold. *)
  | Mbfc of {
      loss_threshold : float;
          (** A receiver is congested when its last reported loss rate
              exceeds this. *)
      population_threshold : float;
          (** Cut when more than this fraction of receivers is
              congested. *)
      refractory : float;
    }
      (** Monitor-based flow control (Sano et al. 1997): the
          double-threshold scheme. *)
  | Random_listening of { loss_threshold : float; refractory : float }
      (** The paper's future-work suggestion (section 6): random
          listening grafted onto rate-based control — a congested
          monitor report halves the rate with probability one over the
          number of currently congested receivers. *)

type config = {
  initial_rate : float;  (** pkt/s *)
  min_rate : float;
  max_rate : float;
  rtt_estimate : float;
      (** Drives the linear increase: every [rtt_estimate] seconds the
          rate grows by one packet per [rtt_estimate]. *)
  report_period : float;  (** Receiver monitor period. *)
  data_size : int;
  policy : policy;
}

val ltrc : policy
(** Loss threshold 0.02, EWMA weight 0.25, refractory 1 s. *)

val mbfc : policy
(** Loss threshold 0.02, population threshold 0.25, refractory 1 s. *)

val random_listening : policy
(** Loss threshold 0.02, refractory 1 s. *)

val default_config : policy -> config
(** 10 pkt/s initial rate within [1, 1e5] pkt/s, 0.25 s RTT estimate,
    1 s report period, {!Wire.data_size}-byte packets.  A CBR source
    is [default_config Fixed] with all three rates set to its rate. *)

type t

val create :
  net:Net.Network.t ->
  src:Net.Packet.addr ->
  receivers:Net.Packet.addr list ->
  config ->
  t
(** Requires routes installed; allocates flow + group and builds the
    multicast tree, one {!Report_receiver} per receiver node. *)

val reset_measurement : t -> unit

val min_delivered_rate : t -> float
(** Worst receiver's goodput since the last measurement reset. *)

module For_testing : sig
  (** The rate-control state (current rate, cuts, packets sent, receiver
      endpoints) that the baseline policy tests assert on; experiments read
      only the delivered rates. *)

  val rate : t -> float
  (** Current sending rate, pkt/s. *)

  val cuts : t -> int

  val sent : t -> int

  val endpoints : t -> Report_receiver.t list
end
