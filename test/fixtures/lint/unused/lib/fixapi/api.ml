let used = 1

let unused = 2

let bench_only = 3
