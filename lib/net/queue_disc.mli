(** Queue disciplines for gateway buffers.

    Both disciplines enforce a hard physical capacity (packets waiting
    in the buffer); RED additionally drops early based on its average
    queue estimate. *)

type kind =
  | Droptail
  | Red_gateway of Red.params
  | Bernoulli_loss of float
      (** Drop-tail that additionally drops each arrival independently
          with the given probability — the idealised random-loss link
          used to validate the analytical window formulas. *)

type t

val create : kind -> capacity:int -> rng:Sim.Rng.t -> t
(** [capacity] is the buffer size in packets (the paper uses 20). *)

val kind : t -> kind

val set_registry : t -> Obs.Registry.t option -> id:string -> unit
(** Forward instrumentation to the underlying discipline (currently a
    no-op except for RED gateways; see {!Red.set_registry}). *)

val capacity : t -> int

val on_arrival : t -> now:float -> qlen:int -> [ `Admit | `Drop | `Mark ]
(** Decision for a packet arriving when [qlen] packets are waiting;
    [`Mark] admits the packet with its congestion-experienced bit set
    (ECN-enabled RED only). *)

val on_empty : t -> now:float -> unit
(** The buffer just drained (RED idle-time bookkeeping). *)

type state = Stateless | Red of Red.state
(** Drop-tail and Bernoulli disciplines are stateless here (the loss
    RNG is shared with — and captured by — the owning link). *)

val capture : t -> state

val restore : t -> state -> unit
(** Raises [Invalid_argument] if the captured state does not match the
    discipline kind (checkpoint/topology mismatch). *)
