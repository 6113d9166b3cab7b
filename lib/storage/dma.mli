(** Guest-memory DMA buffers.

    Models the RAM buffers that disk controllers transfer into/out of.
    Buffers live in a flat address space so device command structures can
    reference them by address, the way real PRDs/PRDTs do; BMcast's
    mediators exploit this to act as a "virtual DMA controller" (§3.2),
    copying server data directly into guest buffers, and to retarget a
    device at a VMM-owned dummy buffer. *)

type t

type buf = {
  addr : int;
  mutable data : Content.t array;
  mutable pos : int;
  mutable len : int;
}
(** The [len] sectors [data.(pos .. pos + len - 1)] sit at [addr]. A
    buffer from {!alloc} owns its whole array ([pos] 0); one from
    {!bindable} names a window of a caller's array, rebound per
    command. *)

type prd = { buf_addr : int; mutable sectors : int }
(** One physical-region-descriptor (scatter-list) entry: [sectors]
    sectors of the buffer at [buf_addr]. Both controller models use it,
    so a mediator can walk either one's scatter list. PRDs are guest
    memory: a driver keeps one entry and rewrites its [sectors] per
    command. *)

val create : unit -> t

val alloc : t -> sectors:int -> buf
(** Fresh zeroed buffer at a unique, sector-aligned address. Addresses
    are never reused. *)

val bindable : t -> buf
(** A buffer at a unique address reserved wide enough for any window
    {!bind} accepts, bound to no memory yet: {!find} rejects its address
    until it is bound. A driver makes one at attach and binds it to each
    command's caller array, so a command allocates no buffer and the
    driver keeps no array alive between commands. *)

val bind : buf -> Content.t array -> pos:int -> sectors:int -> unit
(** [bind buf a ~pos ~sectors] makes [buf] name [a.(pos .. pos +
    sectors - 1)]: transfers to and from [buf] read and write [a].
    @raise Invalid_argument unless [sectors > 0] and the window lies
    inside [a]. *)

val unbind : buf -> unit
(** Drop the binding, so the buffer keeps no array alive. *)

val find : t -> addr:int -> buf
(** Raises [Invalid_argument] for an unknown, freed or unbound address. *)

val free : t -> buf -> unit
(** Forget the buffer: {!find} no longer reaches it, so its owner may
    keep [data] as its own array. *)

val blit_to : buf -> off:int -> Content.t array -> src_off:int -> count:int -> unit
(** Copy [count] sectors from [src.(src_off..)] into the buffer at
    [off]. Raises [Invalid_argument] if either window overflows. *)

val blit_from : buf -> off:int -> Content.t array -> dst_off:int -> count:int -> unit
(** Copy [count] sectors out of the buffer at [off] into
    [dst.(dst_off..)], the reverse of {!blit_to}.
    Raises [Invalid_argument] if either window overflows. *)

(** {2 Scatter lists}

    What a controller's DMA engine (or a mediator acting as one) does
    with a command's PRDs. Both walk the entries in order and stop once
    [count] sectors have moved, looking up no entry past that point;
    neither allocates. *)

val prd_sectors : prd list -> int
(** Sectors the entries cover in all. *)

val scatter : t -> prd list -> Content.t array -> count:int -> unit
(** Copy [src.(0 .. count - 1)] into the entries' buffers. *)

val gather : t -> prd list -> Content.t array -> count:int -> unit
(** Copy the entries' first [count] sectors into [dst.(0 .. count - 1)]. *)
