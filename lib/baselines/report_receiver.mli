(** Receiver for rate-based schemes: counts data packets per monitor
    period and reports the observed loss rate to the sender by
    unicast. *)

type t

val create :
  net:Net.Network.t ->
  node:Net.Packet.addr ->
  flow:Net.Packet.flow ->
  sender:Net.Packet.addr ->
  period:float ->
  t

val delivered_rate : t -> since:float -> float
(** Packets per second received since [since]. *)

val reset_measurement : t -> now:float -> unit

module For_testing : sig
  (** The receive counter and the last monitor period's loss rate, which
      the loss-report tests check. *)

  val received_total : t -> int

  val last_loss_rate : t -> float
  (** Loss rate of the last completed monitor period. *)
end
