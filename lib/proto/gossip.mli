(** Chunk-bitmap gossip for peer-to-peer image distribution.

    Peers advertise which image chunks (fixed-size sector ranges, see
    [Params.chunk_sectors]) they hold by multicasting a compact summary
    over the AoE fabric. The summary is a bitset over chunk indexes with
    a canonical run-length wire encoding — two summaries covering the
    same set encode to byte-identical messages — and a commutative,
    idempotent merge, so receivers can fold announcements in any order
    and duplicates are free. The directory built from these
    announcements drives peer selection in [Bmcast_fleet.Peer]. *)

type summary
(** A set of held chunk indexes over a fixed chunk count. Mutable;
    grow-only via {!set} / {!merge_into}. *)

val create : chunks:int -> summary
(** Empty summary over [chunks] chunks. Raises [Invalid_argument] if
    [chunks < 0]. *)

val chunks : summary -> int

val set : summary -> int -> unit
(** Mark a chunk held (idempotent). Raises [Invalid_argument] out of
    range. *)

val mem : summary -> int -> bool
val cardinal : summary -> int
val copy : summary -> summary

val equal : summary -> summary -> bool
(** Same chunk count and same held set. *)

val merge : summary -> summary -> summary
(** Set union into a fresh summary — commutative, associative,
    idempotent. Raises [Invalid_argument] on mismatched chunk counts. *)

val merge_into : into:summary -> summary -> unit
(** In-place union. *)

val runs : summary -> (int * int) list
(** Canonical run decomposition: maximal [(start, length)] runs of held
    chunks, ascending, coalesced — the form carried on the wire. *)

val of_runs : chunks:int -> (int * int) list -> summary
(** Rebuild a summary from runs (need not be canonical; overlaps are
    unioned). Raises [Invalid_argument] for out-of-range runs. *)

(** {2 Wire codec} *)

type msg = {
  origin : int;  (** fabric port id of the peer's serve endpoint *)
  epoch : int;  (** origin's crash epoch; stale-epoch guard *)
  summary : summary;
}

val encode : msg -> Bytes.t
(** Canonical byte encoding (magic, version, origin, epoch, chunk
    count, run list). Equal messages encode byte-identically. *)

val decode : Bytes.t -> msg
(** Raises [Invalid_argument] on a short, malformed, or non-canonical
    buffer. *)

val wire_size : msg -> int
(** Size in bytes of {!encode}'s output, without encoding — used to
    size the fabric frame. *)

type Bmcast_net.Packet.payload += Announce of msg
(** Announcement as carried through the simulated fabric (decoded form;
    the byte codec is exercised by the property suite). *)

val send : Bmcast_net.Fabric.port -> dst:int -> msg -> unit
(** Transmit an announcement (typically to the swarm's gossip multicast
    group), sized by {!wire_size}. *)
