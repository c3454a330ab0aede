(** Checkpoint codecs for every component's captured state.

    One {!Codec.t} per section of a sharing checkpoint, composed from
    codecs for the state records defined across
    [lib/{sim,net,tcp,core,stats,obs}]: each record's field order is
    written down once and serves both the writer and the reader.

    Also carries the {!Experiments.Sharing.config} codec, so a
    checkpoint is self-contained: restoring needs no command line —
    the file says how to rebuild the identical topology. *)

val scheduler : Sim.Scheduler.state Codec.t

val network : Net.Network.state Codec.t

val tcp_sender : Tcp.Sender.state Codec.t

val rla_sender : Rla.Sender.state Codec.t

val registry : Obs.Registry.state Codec.t

val sharing_config : Experiments.Sharing.config Codec.t
