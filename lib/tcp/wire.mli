(** TCP packet payloads.

    Sequence numbers count whole packets (as the paper's analysis
    does), not bytes.  Data packets carry their send timestamp, echoed
    back in acknowledgments, giving RTT samples that are immune to
    retransmission ambiguity (Karn's problem). *)

type sack_block = { block_lo : int; block_hi : int }
(** Half-open range [\[block_lo, block_hi)] of packets received
    out of order. *)

type Net.Packet.payload +=
  | Tcp_data of { seq : int; sent_at : float }
  | Tcp_ack of {
      cum_ack : int;
      blocks : sack_block list;
      echo : float;
      ece : bool;
      rwnd : int;
    }
        (** [cum_ack] is the next packet the receiver expects;
            [blocks] holds at most {!max_sack_blocks} ranges, most
            recently changed first; [ece] echoes a congestion mark set
            by an ECN-enabled gateway on the acknowledged data.
            [rwnd] is the advertised-window {e field} — the receive
            window right-shifted by the negotiated scale and clamped
            to {!rwnd_field_max} — or {!no_rwnd} when the receiver
            does not model a finite window (the sender then treats the
            window as unlimited, the pre-hardening behavior). *)
  | Tcp_syn of { options : int; sent_at : float }
        (** Connection request; [options] is {!Options.encode}d. *)
  | Tcp_syn_ack of { options : int; rwnd : int; sent_at : float }
        (** Accept: the responder's own options (negotiation is the
            meet of the two) plus its initial window field. *)
  | Tcp_rst of { seq : int }
        (** Reset claiming sequence number [seq]; subject to RFC 5961
            validation at the receiver. *)
  | Tcp_probe of { seq : int; sent_at : float }
        (** Zero-window probe: one sequence number of ghost data sent
            by the persist timer to solicit a fresh window
            advertisement. *)

val max_sack_blocks : int
(** 3, as in RFC 2018 with timestamps in use. *)

val data_size : int
(** Bytes on the wire for a data packet (1000, as in the paper). *)

val ack_size : int
(** Bytes on the wire for a pure ack (40). *)

val no_rwnd : int
(** -1: sentinel for "no window advertised" in [Tcp_ack]/[Tcp_syn_ack]. *)

val rwnd_field_max : int
(** [2^rwnd_field_bits - 1 = 63] packets at shift 0. *)
