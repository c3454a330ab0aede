(** Non-backoff constant-rate sender (UDP-blast adversary).

    Sends TCP-framed data at a fixed packet rate on its own unicast
    flow and never reacts to anything: no acknowledgments are expected,
    drops are ignored, the rate never changes.  This is the classic
    unresponsive flow the paper's fairness bounds must survive.

    Fully deterministic: one self-rescheduling pace event, no RNG
    draws, no wall-clock reads. *)

type t

val create :
  net:Net.Network.t ->
  src:Net.Packet.addr ->
  dst:Net.Packet.addr ->
  ?rate:float ->
  ?data_size:int ->
  ?start_at:float ->
  unit ->
  t
(** Start blasting [rate] packets/s (default 1000) from [src] to [dst]
    beginning [start_at] seconds from now (default 0).  A counting sink
    is attached at [dst].  Raises [Invalid_argument] on a non-positive
    rate. *)

val reset_measurement : t -> unit
(** Restart the measurement window (the paper discards warmup). *)

val send_rate : t -> float
(** Packets/s put on the wire since the last {!reset_measurement}. *)

val delivered_rate : t -> float
(** Packets/s delivered to the sink since the last
    {!reset_measurement} — the bandwidth the adversary actually
    captured at the bottleneck. *)
