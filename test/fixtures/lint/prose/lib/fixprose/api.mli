val live : int

val quoted : int
