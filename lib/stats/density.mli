(** Two-dimensional occupancy grid.

    Reproduces figure 5 of the paper: the density of visits of the
    pair (cwnd1, cwnd2) of two competing multicast sessions. *)

type t

val create : x_lo:float -> x_hi:float -> y_lo:float -> y_hi:float -> cells:int -> t
(** A [cells] x [cells] grid covering the rectangle. *)

val add : t -> x:float -> y:float -> unit
(** Out-of-range points are clamped onto the border cells. *)

val cell : t -> int -> int -> int
(** [cell t ix iy]: visit count of the cell. *)

val total : t -> int

val peak_cell : t -> int * int
(** Indices of the fullest cell (ties break to the smallest index). *)

val centroid : t -> float * float
(** Mass-weighted centre; (0, 0) when empty. *)

val mass_within : t -> cx:float -> cy:float -> radius:float -> float
(** Fraction of visits whose cell centre lies within [radius] of
    [(cx, cy)]. *)

val pp : Format.formatter -> t -> unit
(** ASCII shading of the grid (darker = more visits). *)
