(** Hash tables keyed by ints, each key hashed as itself.

    The data path looks up small or sequential int keys once per frame:
    AoE command tags ([Aoe_client]'s pending commands, the replica and
    peer routers' flights) and scratch-array lengths. A polymorphic
    [Hashtbl] hashes such a key through [caml_hash] and compares it
    through [compare_val]; here neither runs. Look keys up with {!find}
    and [match ... with exception Not_found]: a hit then allocates
    nothing, where [find_opt] builds a [Some] per lookup. *)

include Hashtbl.S with type key = int
