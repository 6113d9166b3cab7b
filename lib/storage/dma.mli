(** Guest-memory DMA buffers.

    Models the RAM buffers that disk controllers transfer into/out of.
    Buffers live in a flat address space so device command structures can
    reference them by address, the way real PRDs/PRDTs do; BMcast's
    mediators exploit this to act as a "virtual DMA controller" (§3.2),
    copying server data directly into guest buffers, and to retarget a
    device at a VMM-owned dummy buffer. *)

type t

type buf = { addr : int; data : Content.t array }
(** [data] holds one element per sector. *)

type prd = { buf_addr : int; sectors : int }
(** One physical-region-descriptor (scatter-list) entry: [sectors]
    sectors of the buffer at [buf_addr]. Both controller models use it,
    so a mediator can walk either one's scatter list. *)

val create : unit -> t

val alloc : t -> sectors:int -> buf
(** Fresh zeroed buffer at a unique, sector-aligned address. Addresses
    are never reused. *)

val find : t -> addr:int -> buf
(** Raises [Invalid_argument] for an unknown or freed address. *)

val free : t -> buf -> unit
(** Forget the buffer: {!find} no longer reaches it, so its owner may
    keep [data] as its own array. *)

val write : buf -> off:int -> Content.t array -> unit
(** Copy sectors into the buffer at sector offset [off].
    Raises [Invalid_argument] on overflow. *)

val blit_to : buf -> off:int -> Content.t array -> src_off:int -> count:int -> unit
(** Copy [count] sectors from [src.(src_off..)] into the buffer at
    [off], without the intermediate array {!write} of an [Array.sub]
    slice would need. *)

val blit_from : buf -> off:int -> Content.t array -> dst_off:int -> count:int -> unit
(** Copy [count] sectors out of the buffer at [off] into
    [dst.(dst_off..)], the reverse of {!blit_to}.
    Raises [Invalid_argument] if either window overflows. *)
