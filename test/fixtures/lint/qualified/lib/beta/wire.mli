include module type of struct include Alpha.Wire end
