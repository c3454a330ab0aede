val floor_one : float -> float
val halve : float -> float
val wider : 'a -> 'a -> 'a
val count : int -> int
