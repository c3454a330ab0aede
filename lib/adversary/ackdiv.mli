(** Ack-division attacker (Savage et al., CCR 1999).

    A colluding sender/receiver pair on one flow: the receiver
    acknowledges every data packet [split] times, and the sender —
    modelling the pre-ABC (RFC 3465) congestion-control bug — grows
    its window per ack {e arrival} rather than per packet newly
    acknowledged, so it opens [split] times faster than an honest TCP
    through the same bottleneck.

    The honest {!Tcp.Sender} counts cumulatively-acknowledged packets
    (appropriate-byte-counting at packet granularity) and is therefore
    structurally immune; this module exists to measure what the
    misbehaving variant extracts from the shared queue.  Recovery is
    deliberately primitive — timeout-only go-back-N with
    {!Tcp.Rto} backoff — because the attack is about growth, not loss
    recovery.  Fully deterministic: no RNG draws. *)

type params = {
  split : int;  (** Acks sent per data packet (>= 1; honest = 1). *)
  init_cwnd : float;
  max_cwnd : float;
  max_burst : int;
  data_size : int;
  min_rto : float;
}

val default_params : params
(** split 4, cwnd 1, max_cwnd 128, max_burst 4, 1000-byte packets,
    min RTO 1 s — comparable to {!Tcp.Sender.default_params}. *)

type t

val create :
  net:Net.Network.t ->
  src:Net.Packet.addr ->
  dst:Net.Packet.addr ->
  ?params:params ->
  ?start_at:float ->
  unit ->
  t
(** Build the colluding pair on a fresh flow; transmission starts
    [start_at] seconds from now.  Raises [Invalid_argument] if
    [params.split < 1]. *)

val reset_measurement : t -> unit

val send_rate : t -> float
(** Packets/s on the wire since the last {!reset_measurement}. *)

val delivered_rate : t -> float
(** Goodput packets/s since the last {!reset_measurement}. *)
