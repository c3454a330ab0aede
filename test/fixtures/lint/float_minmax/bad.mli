val floor_one : float -> float
val halve : float -> float
val cap : float -> float -> float
val aged : float -> float -> float -> float
