(** Deterministic fault schedules.

    A timeline is an ordered list of timestamped fault events — link
    outages and repairs, runtime link degradation, multicast membership
    churn, and competing-flow churn.  Timelines are either scripted
    ({!scripted}, {!of_spec}) or generated from a seeded RNG stream
    ({!generate}); in both cases the schedule is a pure value fixed
    before the simulation starts, so a run that injects it is
    reproducible from the seed alone. *)

type link = Net.Packet.addr * Net.Packet.addr
(** A duplex link named by its endpoints; the injector applies link
    events to both directions. *)

type event =
  | Link_down of link  (** Carrier loss: queued packets are dropped. *)
  | Link_up of link
  | Set_bandwidth of link * float  (** New rate, bits per second. *)
  | Set_delay of link * float  (** New one-way propagation, seconds. *)
  | Receiver_leave of Net.Packet.addr
      (** The RLA session stops listening to this receiver. *)
  | Receiver_join of Net.Packet.addr
      (** Join (or re-join) the multicast session at this node. *)
  | Flow_start of { id : int; dst : Net.Packet.addr }
      (** Start a competing TCP flow; [id] is script-scoped. *)
  | Flow_stop of { id : int }
  | Rst_inject of { flow : int; dst : Net.Packet.addr; seq : int }
      (** Blind RST forgery: spoof a reset claiming sequence [seq]
          into [flow] at receiver [dst] (RFC 5961's threat model). *)
  | Data_inject of { flow : int; dst : Net.Packet.addr; seq : int }
      (** Blind data forgery: spoof a junk segment at [seq] into
          [flow] at receiver [dst]. *)

type entry = { time : float; event : event }

type t
(** Entries in nondecreasing time order. *)

val entries : t -> entry list

val is_empty : t -> bool

val scripted : (float * event) list -> t
(** Build a timeline from explicit (time, event) pairs; sorting is
    stable, so simultaneous events keep their script order.  Raises
    [Invalid_argument] on negative times, nonpositive bandwidths or
    negative delays. *)

(** {2 Random generation} *)

type gen_params = {
  horizon : float;  (** Events are generated in [\[start, horizon)]. *)
  start : float;
  outage_links : link list;  (** Candidate links for outages. *)
  outage_rate : float;  (** Poisson arrivals per second. *)
  outage_min : float;  (** Outage duration bounds, seconds. *)
  outage_max : float;
  churn_receivers : Net.Packet.addr list;
  churn_rate : float;  (** Leave events per second. *)
  absence_min : float;  (** Seconds until the receiver rejoins. *)
  absence_max : float;
  flow_dsts : Net.Packet.addr list;
  flow_rate : float;  (** Competing-flow starts per second. *)
  flow_lifetime_min : float;
  flow_lifetime_max : float;
}

val default_gen : start:float -> horizon:float -> gen_params
(** Mild churn defaults with empty candidate lists — fill in
    [outage_links] / [churn_receivers] / [flow_dsts] to enable each
    fault class. *)

val generate : rng:Sim.Rng.t -> gen_params -> t
(** Draw a timeline: each fault class is an independent Poisson process
    with bounded-uniform durations (outage length, membership absence,
    flow lifetime); repairs/rejoins/stops may land past [horizon].  The
    result depends only on the RNG state and parameters. *)

(** {2 Spec strings (CLI)} *)

type parse_error = {
  pe_index : int;  (** 0-based index of the offending entry. *)
  pe_offset : int;  (** Byte offset of the entry in the spec string. *)
  pe_entry : string;  (** The trimmed entry text ([""] for an empty spec). *)
  pe_reason : string;
}
(** Typed spec-parse diagnosis: which entry failed, where it starts in
    the input, and why. *)

val parse_error_to_string : parse_error -> string
(** Render with 1-based entry numbering for CLI error messages. *)

val of_spec : string -> (t, parse_error) result
(** Parse a [';']-separated script, e.g.
    ["120:down:5-14; 150:up:5-14; 130:leave:20; 200:join:20;
      140:tcpstart:1:15; 250:tcpstop:1"].
    Entry forms: [TIME:down:A-B], [TIME:up:A-B], [TIME:bw:A-B:BPS],
    [TIME:delay:A-B:SECS], [TIME:leave:ADDR], [TIME:join:ADDR],
    [TIME:tcpstart:ID:DST], [TIME:tcpstop:ID], [TIME:rst:FLOW:DST:SEQ],
    [TIME:inj:FLOW:DST:SEQ]. *)

val to_spec : t -> string
(** Inverse of {!of_spec} (up to float formatting). *)

val spec_grammar : string
(** One-line grammar summary for [--help] texts. *)

val event_to_string : event -> string
