(** Per-job execution metrics collected by {!Pool}. *)

type t = {
  wall_s : float;  (** Wall-clock seconds spent inside the job body. *)
  events_fired : int;
      (** Scheduler events executed by the job's network (0 for
          {!Job.pure} jobs). *)
  allocated_mb : float;
      (** MB allocated by the domain while running the job. *)
  peak_heap_mb : float;
      (** Top-of-heap high-water mark when the job finished
          (approximate: the major heap is shared between domains). *)
}

val zero : t
