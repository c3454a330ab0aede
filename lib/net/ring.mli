(** Growable circular FIFO backed by a single array.

    Replaces [Stdlib.Queue] on the link hot path: push and take touch
    one array slot each instead of allocating a cell per element.  The
    [dummy] supplied at creation fills vacated slots, so a drained ring
    keeps no element (packet, closure) reachable. *)

type 'a t

val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> 'a -> unit
(** Append at the back, growing the backing array if full. *)

val take : 'a t -> 'a
(** Remove and return the front element; its slot is overwritten with
    the dummy.  Raises [Invalid_argument] on an empty ring, so callers
    check {!length} or {!is_empty} first — no option cell is built. *)

val peek : 'a t -> 'a option

val clear : 'a t -> unit
(** Remove all elements, overwriting every occupied slot. *)

val iter : 'a t -> f:('a -> unit) -> unit
(** Front to back. *)

val capture : 'a t -> 'a list
(** Contents front-to-back; pure read (checkpoint support). *)

val restore : 'a t -> 'a list -> unit
(** Replace the contents with a captured list, front first. *)
