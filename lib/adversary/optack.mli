(** Optimistic acker (Savage et al., CCR 1999).

    Hijacks the receiving end of an honest {!Tcp.Sender} flow:
    {!hijack} re-attaches the flow's endpoint handler at the receiving
    node, replacing the honest SACK receiver with one that
    cumulatively acknowledges [max_seen + 1 + lookahead] on every data
    arrival.  With [lookahead = 0] every gap below the highest
    sequence seen is acknowledged, so losses become invisible to the
    sender — no dup acks, no SACK holes, no retransmissions — and its
    window climbs to the cap regardless of congestion.

    A positive [lookahead] acknowledges data the sender has not yet
    transmitted; the hardened sender's ack-validation fast path drops
    those acks and counts them in {!Tcp.Sender.ghost_acks} — the
    mitigation the suite measures.
    Concealing genuine losses ([lookahead = 0]) is {e not} detectable
    that way, which is exactly the attack's point. *)

type t

val hijack :
  net:Net.Network.t ->
  node:Net.Packet.addr ->
  flow:Net.Packet.flow ->
  peer:Net.Packet.addr ->
  ?lookahead:int ->
  unit ->
  t
(** Replace the endpoint handler for [flow] at [node], acking to
    [peer].  Call after the honest pair is built.  Raises
    [Invalid_argument] on a negative [lookahead]. *)
