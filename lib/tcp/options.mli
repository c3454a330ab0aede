(** SYN-time TCP options as a packed-integer codec.

    A connection's options ride in {!Wire.Tcp_syn} / {!Wire.Tcp_syn_ack}
    payloads as one immediate integer ({!encode} / {!decode}), mirroring
    the MSS, window-scale (RFC 7323) and SACK-permitted option kinds of
    a real SYN.  {!decode} is total: junk bits yield a typed error, not
    an exception, so a malformed SYN can be dropped like a real
    segment with an unparseable option list. *)

type t = {
  mss : int;  (** Maximum segment size, bytes; 1..65535. *)
  wscale : int;  (** Window-scale shift, 0..14 (RFC 7323 cap). *)
  sack_ok : bool;  (** SACK-permitted. *)
}

type error = Bad_mss of int | Bad_wscale of int | Bad_bits of int

val max_wscale : int
(** 14, the RFC 7323 maximum shift. *)

val make : mss:int -> wscale:int -> sack_ok:bool -> t
(** Raises [Invalid_argument] outside the ranges above. *)

val encode : t -> int
(** Pack into a non-negative immediate integer (fits in 21 bits). *)

val decode : int -> (t, error) result
(** Inverse of {!encode}; rejects zero mss, shifts above
    {!max_wscale}, and any bits outside the defined layout. *)

val negotiate : t -> t -> t
(** Symmetric meet: min mss, min shift, SACK iff both permit. *)
