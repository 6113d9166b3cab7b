(** Remote block access over iSCSI-like and NFS-like protocols.

    Baseline transports for the comparisons in §5.1/§5.5: image copying
    over iSCSI, NFS-root network boot, and KVM guests with NFS/iSCSI
    image backends. Both are modelled as reliable (TCP-like) RPC streams
    over the Ethernet fabric: per-operation client and server CPU
    overheads differ by protocol, and bulk data is chunked into MTU-sized
    frames on the wire.

    iSCSI is a block protocol with moderate per-op cost; the NFS model is
    file-level — higher per-op cost but client-side read-ahead/caching
    absorbs part of it for sequential access. *)

type protocol = Iscsi | Nfs

type params = {
  label : string;
  client_op_overhead : Bmcast_engine.Time.span;
  server_op_overhead : Bmcast_engine.Time.span;
  max_op_sectors : int;
  readahead_sectors : int;  (** 0 disables client read-ahead *)
}

type server

val create_server :
  Bmcast_engine.Sim.t ->
  fabric:Bmcast_net.Fabric.t ->
  name:string ->
  disk:Bmcast_storage.Disk.t ->
  protocol ->
  server

type client

val connect :
  Bmcast_engine.Sim.t ->
  fabric:Bmcast_net.Fabric.t ->
  name:string ->
  server ->
  client

val read : client -> lba:int -> count:int -> Bmcast_storage.Content.t array
(** Blocking read (process context); splits into protocol-sized ops and
    serves from the read-ahead cache when possible. *)

val write : client -> lba:int -> count:int -> Bmcast_storage.Content.t array -> unit

val ops_issued : client -> int
