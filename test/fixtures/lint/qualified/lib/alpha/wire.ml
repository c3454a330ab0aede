let encode x = x
