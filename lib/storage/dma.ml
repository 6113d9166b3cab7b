type buf = { addr : int; data : Content.t array }

type prd = { buf_addr : int; sectors : int }

(* Buffers are looked up on every DMA transfer. Addresses are
   sector-aligned, so the sector number is a collision-free hash. *)
module Bufs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash addr = addr lsr 9
end)

type t = { mutable next_addr : int; bufs : buf Bufs.t }

let create () = { next_addr = 0x1000_0000; bufs = Bufs.create 64 }

let alloc t ~sectors =
  if sectors <= 0 then invalid_arg "Dma.alloc: sectors must be positive";
  let addr = t.next_addr in
  (* Keep addresses sector-aligned and non-overlapping. *)
  t.next_addr <- t.next_addr + (sectors * 512);
  let buf = { addr; data = Content.zeroes ~count:sectors } in
  Bufs.replace t.bufs addr buf;
  buf

let find t ~addr =
  match Bufs.find t.bufs addr with
  | b -> b
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Dma.find: unknown buffer 0x%x" addr)

let free t buf = Bufs.remove t.bufs buf.addr

let write buf ~off src =
  if off < 0 || off + Array.length src > Array.length buf.data then
    invalid_arg "Dma.write: out of bounds";
  Content.blit src 0 buf.data off (Array.length src)

(* Slice-aware copies so hot paths need not materialize a sub-array per
   PRD entry. *)
let blit_to buf ~off src ~src_off ~count =
  if off < 0 || count < 0 || off + count > Array.length buf.data
     || src_off < 0 || src_off + count > Array.length src
  then invalid_arg "Dma.blit_to: out of bounds";
  Content.blit src src_off buf.data off count

let blit_from buf ~off dst ~dst_off ~count =
  if off < 0 || count < 0 || off + count > Array.length buf.data
     || dst_off < 0 || dst_off + count > Array.length dst
  then invalid_arg "Dma.blit_from: out of bounds";
  Content.blit buf.data off dst dst_off count
