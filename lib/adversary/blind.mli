(** Blind in-window injector (RFC 5961 threat model).

    An off-path attacker who knows a connection's 4-tuple (here: its
    flow id and endpoint address) but not its exact sequence state,
    and spoofs RST or data segments at guessed sequence numbers hoping
    to land in the receive window.  Injections originate at the
    attacker's own node [src], so they traverse (and load) real links.

    Stateless apart from counters; drive it from
    {!Faults.Injector} handlers ([Rst_inject] / [Data_inject] timeline
    events) so hostile runs stay deterministic and byte-identical
    across [--jobs]. *)

type t

val create :
  net:Net.Network.t ->
  src:Net.Packet.addr ->
  ?data_size:int ->
  unit ->
  t

val rst : t -> flow:Net.Packet.flow -> dst:Net.Packet.addr -> seq:int -> unit
(** Spoof a RST claiming sequence [seq] on [flow] towards [dst].
    Whether it kills, draws a challenge ack, or is dropped is decided
    by the victim {!Tcp.Receiver}'s RFC 5961 validation. *)

val data :
  t -> flow:Net.Packet.flow -> dst:Net.Packet.addr -> seq:int -> unit
(** Spoof a data segment at sequence [seq] (stamped with the current
    time, so a victim that acks it produces a sane-looking echo). *)

val rst_sent : t -> int
