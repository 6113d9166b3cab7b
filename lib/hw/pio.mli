(** Port-mapped (programmed) I/O space with VMM interposition.

    Structure mirrors {!Mmio} but over the 16-bit x86 port space; IDE task
    files and bus-master DMA registers live here. *)

type t

type handler = { inp : int -> int; outp : int -> int -> unit }
(** Handlers see port offsets relative to the mapped base. *)

type interposer = {
  on_in : next:(int -> int) -> int -> int;
  on_out : next:(int -> int -> unit) -> int -> int -> unit;
}

val create : unit -> t
val map : t -> base:int -> count:int -> handler -> unit
val interpose : t -> base:int -> interposer -> unit
val remove_interposer : t -> base:int -> unit

val inp : t -> int -> int
(** Read a port (absolute port number). *)

val outp : t -> int -> int -> unit

val trapped_accesses : t -> int
