let live = 1

let quoted = 2
