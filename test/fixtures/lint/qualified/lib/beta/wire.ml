include Alpha.Wire
