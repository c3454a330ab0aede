val used : int

val unused : int

val bench_only : int
