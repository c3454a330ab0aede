(** Receive-side reassembly, shared by the TCP and RLA receivers: the
    cumulative point, the packets held above it, and the SACK blocks
    reported from them — up to {!Wire.max_sack_blocks}, the block
    around the most recently received packet first, each block once. *)

type t

val create : ?start:int -> unit -> t
(** [start] (default 0) is the first sequence number expected. *)

val expected : t -> int
(** The cumulative ack: every sequence number below it has arrived. *)

val held : t -> int
(** Packets held out of order above [expected]. *)

val accept : t -> int -> unit
(** One arrival: a duplicate is counted, the in-order packet advances
    [expected] through every held continuation, any other is held. *)

val blocks : t -> Wire.sack_block list

type state = {
  ooo : int list;  (** held sequence numbers, ascending *)
  recent : int list;  (** SACK block representatives, recency order *)
  expected : int;
  duplicates : int;
}

val capture : t -> state

val restore : t -> state -> unit
