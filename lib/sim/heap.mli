(** 4-ary min-heap keyed by [(priority, tie-break counter)].

    The heap is the core of the discrete-event scheduler: events are
    ordered by simulated time, and events scheduled for the same time
    fire in insertion order (the monotone counter breaks ties), which
    keeps simulations deterministic.

    The backing store is a structure of arrays: unboxed priorities,
    unboxed counters and the slot number of each element are sifted
    together, while the values sit in a slot table and never move.  A
    sift therefore follows no per-element pointer and writes no
    pointer; an element costs one pointer write when it is added and
    one when it leaves, and insertion allocates nothing beyond
    amortized growth.  Slots vacated by {!pop_top} and {!compact} (and
    the whole store on {!clear}) are overwritten, so the heap retains
    no reference to a value it has let go. *)

type 'a t

val create : unit -> 'a t
(** [create ()] is an empty heap. *)

val length : 'a t -> int
(** Number of elements currently stored. *)

val is_empty : 'a t -> bool

val add : 'a t -> prio:float -> 'a -> unit
(** [add t ~prio x] inserts [x] with priority [prio].  Elements with
    equal priority are returned in insertion order. *)

val top_prio : 'a t -> float
(** Priority of the minimum element.  A float returned across modules
    is boxed (2 words) unless the call is inlined, which dune's dev
    profile ([-opaque]) rules out; see {!top_above} for a test that
    boxes nothing.  Raises [Invalid_argument] on an empty heap, so
    callers on the hot path pair it with {!is_empty}. *)

val top_above : 'a t -> float -> bool
(** [top_above t bound] is [top_prio t > bound], without boxing the
    priority; raises [Invalid_argument] on an empty heap. *)

val top_seq : 'a t -> int
(** Tie-break counter of the minimum element; raises [Invalid_argument]
    on an empty heap. *)

val pop_top : 'a t -> 'a
(** Remove the minimum element and return only its value, allocating
    nothing (the sifts work on indices, so no priority is boxed) — the
    hot-path combination with {!top_prio}/{!top_seq}.  Raises
    [Invalid_argument] on an empty heap. *)

val clear : 'a t -> unit
(** Remove all elements. *)

val add_with_seq : 'a t -> prio:float -> seq:int -> 'a -> unit
(** [add_with_seq t ~prio ~seq x] inserts [x] under an explicit
    tie-break counter instead of the internal one, so a restored heap
    reproduces the original pop order exactly.  The caller guarantees
    [seq] uniqueness; the internal counter is not advanced. *)

val set_next_seq : 'a t -> int -> unit
(** Overwrite the internal tie-break counter (checkpoint restore). *)

val capture : 'a t -> (float * int * 'a) list
(** All elements as [(prio, seq, value)] sorted in pop order.  Pure
    read; the heap is unchanged. *)

val compact : 'a t -> keep:(int -> bool) -> unit
(** [compact t ~keep] removes every element whose tie-break counter
    fails [keep] and rebuilds the heap in linear time; the slots of
    the removed elements are cleared, so none of their values stays
    reachable.  The survivors keep their keys, so they pop in exactly
    the order they would have popped in without the call.  Allocates
    nothing itself; [keep] should not either. *)
