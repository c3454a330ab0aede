val encode : int -> int
