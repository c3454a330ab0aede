let total = 3
