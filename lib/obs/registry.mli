(** Metrics registry: named counters, gauges, bounded time series, and
    an event-tap API.

    A registry is installed on a simulation through
    [Net.Network.set_registry]; instrumented components look it up once
    and cache their handles, so the per-event cost is a single mutable
    update — and with no registry installed, a single [option] match.
    Instrumentation never schedules simulator events and never draws
    from any RNG stream, so simulation results (event counts, fairness
    numbers, packet traces) are bit-identical with observability on or
    off.

    Handles are interned by name: asking twice for the same name
    returns the same cell.  Enumeration follows creation order, which
    is deterministic for a deterministic simulation. *)

type t

val create : ?series_limit:int -> unit -> t
(** Fresh registry; [series_limit] (default {!Series.default_limit})
    caps the samples kept by each series created through {!series}. *)

(** {2 Counters} *)

type counter

val counter : t -> string -> counter
(** Get or create the named counter (starts at 0). *)

val incr : counter -> unit

val add : counter -> int -> unit

val count : counter -> int

val counter_name : counter -> string

(** {2 Gauges} *)

type gauge

val gauge : t -> string -> gauge
(** Get or create the named gauge (starts at 0.0). *)

val set : gauge -> float -> unit

val gauge_value : gauge -> float

(** {2 Time series} *)

val series : ?limit:int -> t -> string -> Series.t
(** Get or create the named series.  [limit] applies only on creation. *)

val sample : ?limit:int -> t -> string -> time:float -> float -> unit
(** [sample t name ~time v] offers one sample to the named series
    (creating it on first use).  Hot paths should prefer caching the
    handle from {!series}. *)

val find_series : t -> string -> Series.t option

(** {2 Event taps} *)

type event = {
  time : float;  (** Simulated time of the event. *)
  source : string;  (** Emitting component, e.g. ["tcp.flow3"]. *)
  event : string;  (** Event kind, e.g. ["window_cut"]. *)
  value : float;  (** Kind-specific payload (new cwnd, queue length, ...). *)
}

val on_event : t -> (event -> unit) -> unit
(** Subscribe to instrumentation events; taps run synchronously in
    subscription order. *)

val emit : t -> time:float -> source:string -> event:string -> value:float -> unit
(** Deliver an event to all taps; a no-op when none are subscribed. *)

(** {2 Enumeration (for exporters)} *)

val counters : t -> (string * int) list
(** All counters in creation order. *)

val gauges : t -> (string * float) list

val all_series : t -> Series.t list

(** {2 Checkpoint/restore} *)

type state = {
  s_counters : (string * int) list;  (** creation order *)
  s_gauges : (string * float) list;
  s_series : (string * int * Series.state) list;
      (** [(name, limit, state)] in creation order *)
}

val capture : t -> state

val restore : t -> state -> unit
(** Overwrite all metric cells with the captured values, interning in
    saved creation order so exporters enumerate identically to the
    original run.  Intended for a freshly rebuilt registry whose
    components interned the same name prefix in the same order.  Taps
    are not restored — subscribers re-attach themselves. *)
