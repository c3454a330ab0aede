(** TCP SACK receiver endpoint.

    Consumes data packets, delivers them in order (conceptually — by
    default the application is an infinite sink) and acknowledges every
    packet with the cumulative ack plus up to three SACK blocks, most
    recently changed first, echoing the data packet's timestamp.

    The hardened endpoint also answers SYNs (negotiating options),
    advertises a finite receive window when one is modeled, responds to
    zero-window probes, and validates RST and far-out-of-window data
    sequences per RFC 5961 — a blind injection draws a challenge ack
    instead of tearing the connection down. *)

type window = {
  capacity : int;  (** Receive-buffer size, packets (>= 1). *)
  app_rate : float;
      (** Application drain rate, packets/s, as a deterministic
          function of simulated time — no consumption events. *)
}

type t

val create :
  ?window:window ->
  ?wscale:int ->
  ?rst_strict:bool ->
  net:Net.Network.t ->
  node:Net.Packet.addr ->
  flow:Net.Packet.flow ->
  peer:Net.Packet.addr ->
  unit ->
  t
(** Attach a receiver for [flow] at [node], acknowledging to [peer].
    Without [window] no finite window is advertised (acks carry
    {!Wire.no_rwnd}), matching the pre-hardening behavior.  [wscale]
    (default 0) is the shift offered at SYN time and applied to the
    advertised field; [rst_strict] (default [true]) selects RFC 5961
    RST validation — [false] models a legacy stack that accepts any
    in-window RST. *)

val received_total : t -> int
(** Data packets that arrived (including duplicates). *)

val set_rst_strict : t -> bool -> unit
(** Toggle RFC 5961 RST validation (for legacy-stack experiments). *)

type state = {
  s_ooo : int list;  (** out-of-order set, ascending *)
  s_recent : int list;  (** SACK block representatives, recency order *)
  s_expected : int;
  s_received_total : int;
  s_duplicates : int;
  s_t0 : float;
  s_wscale : int;
  s_sack_ok : bool;
  s_rst_strict : bool;
  s_closed : bool;
  s_syn_received : bool;
  s_rst_accepted : int;
  s_rst_challenged : int;
  s_rst_dropped : int;
  s_challenge_acks : int;
  s_ghost_data : int;
  s_probes_received : int;
}

val capture : t -> state

val restore : t -> state -> unit
(** Acks are sent synchronously on data arrival, so the receiver owns
    no scheduler events; restore is pure state overwrite. *)
