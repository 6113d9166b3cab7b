type buf = {
  addr : int;
  mutable data : Content.t array;
  mutable pos : int;
  mutable len : int;
}

type prd = { buf_addr : int; mutable sectors : int }

(* Buffers are looked up on every DMA transfer. Addresses are
   sector-aligned, so the sector number is a collision-free hash. *)
module Bufs = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash addr = addr lsr 9
end)

type t = { mutable next_addr : int; bufs : buf Bufs.t }

let create () = { next_addr = 0x1000_0000; bufs = Bufs.create 64 }

(* Keep addresses sector-aligned and non-overlapping. *)
let register t ~span ~data ~len =
  let addr = t.next_addr in
  t.next_addr <- t.next_addr + (span * 512);
  let buf = { addr; data; pos = 0; len } in
  Bufs.replace t.bufs addr buf;
  buf

let alloc t ~sectors =
  if sectors <= 0 then invalid_arg "Dma.alloc: sectors must be positive";
  register t ~span:sectors ~data:(Content.zeroes ~count:sectors) ~len:sectors

let max_bind_sectors = 1 lsl 30
let bindable t = register t ~span:max_bind_sectors ~data:[||] ~len:0

let bind buf data ~pos ~sectors =
  if sectors <= 0 || sectors > max_bind_sectors || pos < 0
     || pos + sectors > Array.length data
  then invalid_arg "Dma.bind: window outside the array";
  buf.data <- data;
  buf.pos <- pos;
  buf.len <- sectors

let unbind buf =
  buf.data <- [||];
  buf.pos <- 0;
  buf.len <- 0

let find t ~addr =
  match Bufs.find t.bufs addr with
  | b when b.len > 0 -> b
  | _ -> invalid_arg (Printf.sprintf "Dma.find: buffer 0x%x is unbound" addr)
  | exception Not_found ->
    invalid_arg (Printf.sprintf "Dma.find: unknown buffer 0x%x" addr)

let free t buf = Bufs.remove t.bufs buf.addr

(* Slice-aware copies so hot paths need not materialize a sub-array per
   PRD entry. *)
let blit_to buf ~off src ~src_off ~count =
  if off < 0 || count < 0 || off + count > buf.len
     || src_off < 0 || src_off + count > Array.length src
  then invalid_arg "Dma.blit_to: out of bounds";
  Content.blit src src_off buf.data (buf.pos + off) count

let blit_from buf ~off dst ~dst_off ~count =
  if off < 0 || count < 0 || off + count > buf.len
     || dst_off < 0 || dst_off + count > Array.length dst
  then invalid_arg "Dma.blit_from: out of bounds";
  Content.blit buf.data (buf.pos + off) dst dst_off count

let rec prd_sectors = function
  | [] -> 0
  | prd :: rest -> prd.sectors + prd_sectors rest

(* A scatter list is walked entry by entry until [count] sectors have
   moved; entries past that are not looked up. Plain recursion: a walk
   allocates nothing. *)
let rec scatter_from t prds src ~off ~count =
  match prds with
  | prd :: rest when off < count ->
    let n = min prd.sectors (count - off) in
    blit_to (find t ~addr:prd.buf_addr) ~off:0 src ~src_off:off ~count:n;
    scatter_from t rest src ~off:(off + n) ~count
  | _ -> ()

let rec gather_from t prds dst ~off ~count =
  match prds with
  | prd :: rest when off < count ->
    let n = min prd.sectors (count - off) in
    blit_from (find t ~addr:prd.buf_addr) ~off:0 dst ~dst_off:off ~count:n;
    gather_from t rest dst ~off:(off + n) ~count
  | _ -> ()

let scatter t prds src ~count = scatter_from t prds src ~off:0 ~count
let gather t prds dst ~count = gather_from t prds dst ~off:0 ~count
