type t = {
  wall_s : float;
  events_fired : int;
  allocated_mb : float;
  peak_heap_mb : float;
}

let zero =
  { wall_s = 0.0; events_fired = 0; allocated_mb = 0.0; peak_heap_mb = 0.0 }
