(** Binary encoders/decoders for every component's checkpoint state.

    One [w_]/[r_] pair per state record defined across
    [lib/{sim,net,tcp,core,stats,obs,faults}], composed from the
    {!Codec} primitives.  Encoders append to a buffer; decoders raise
    {!Codec.Parse} on malformed input (callers go through
    {!Codec.parse_payload}, which converts that to a typed error).

    Also carries the {!Experiments.Sharing.config} codec, so a
    checkpoint is self-contained: restoring needs no command line —
    the file says how to rebuild the identical topology. *)

val w_scheduler : Buffer.t -> Sim.Scheduler.state -> unit

val r_scheduler : Codec.reader -> Sim.Scheduler.state

val w_network : Buffer.t -> Net.Network.state -> unit

val r_network : Codec.reader -> Net.Network.state

val w_tcp_sender : Buffer.t -> Tcp.Sender.state -> unit

val r_tcp_sender : Codec.reader -> Tcp.Sender.state

val w_rla_sender : Buffer.t -> Rla.Sender.state -> unit

val r_rla_sender : Codec.reader -> Rla.Sender.state

val w_registry : Buffer.t -> Obs.Registry.state -> unit

val r_registry : Codec.reader -> Obs.Registry.state

val w_injector : Buffer.t -> Faults.Injector.state -> unit

val r_injector : Codec.reader -> Faults.Injector.state

val w_sharing_config : Buffer.t -> Experiments.Sharing.config -> unit

val r_sharing_config : Codec.reader -> Experiments.Sharing.config
