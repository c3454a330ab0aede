let total = 1
