(* A sector is one immediate int: the low two bits say what it holds
   and the bits above them carry the image LBA, the write tag or the
   interned blob id. Zero packs to 0, so a fresh [Array.make n 0] is a
   zeroed disk region. *)
type t = int

type view = Zero | Image of int | Data of int | Blob of string

let kind_image = 1
let kind_data = 2
let kind_blob = 3

(* Payloads are signed 61-bit ints, so [payload lsl 2] never wraps. *)
let payload_limit = 1 lsl 60

let pack name kind x =
  if x < -payload_limit || x >= payload_limit then
    invalid_arg (Printf.sprintf "Content.%s: %d does not fit in 61 bits" name x);
  (x lsl 2) lor kind

let zero = 0
let image lba = pack "image" kind_image lba
let data tag = pack "data" kind_data tag

(* Blob ids index [blob_strings]; equal strings share one id, so
   [equal] stays int equality. Entries are never removed. *)
let blob_ids : (string, int) Hashtbl.t = Hashtbl.create 16
let blob_strings = ref [||]

let blob s =
  match Hashtbl.find_opt blob_ids s with
  | Some id -> (id lsl 2) lor kind_blob
  | None ->
    let id = Hashtbl.length blob_ids in
    let strings = !blob_strings in
    if id = Array.length strings then begin
      let grown = Array.make (max 8 (2 * id)) "" in
      Array.blit strings 0 grown 0 id;
      blob_strings := grown
    end;
    !blob_strings.(id) <- s;
    Hashtbl.add blob_ids s id;
    (id lsl 2) lor kind_blob

let view c =
  match c land 3 with
  | 0 -> Zero
  | 1 -> Image (c asr 2)
  | 2 -> Data (c asr 2)
  | _ -> Blob !blob_strings.(c asr 2)

let of_view = function
  | Zero -> zero
  | Image lba -> image lba
  | Data tag -> data tag
  | Blob s -> blob s

let equal (a : t) b = a = b

let pp fmt = function
  | Zero -> Format.pp_print_string fmt "zero"
  | Image lba -> Format.fprintf fmt "image[%d]" lba
  | Data tag -> Format.fprintf fmt "data#%d" tag
  | Blob s -> Format.fprintf fmt "blob[%d bytes]" (String.length s)

(* Plain loops over an int array: no write barrier, whichever heap the
   destination lives in. *)
let blit (src : t array) src_off (dst : t array) dst_off len =
  if len < 0 || src_off < 0 || src_off > Array.length src - len || dst_off < 0
     || dst_off > Array.length dst - len
  then invalid_arg "Content.blit";
  if src_off < dst_off then
    for i = len - 1 downto 0 do
      Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
    done
  else
    for i = 0 to len - 1 do
      Array.unsafe_set dst (dst_off + i) (Array.unsafe_get src (src_off + i))
    done

let fill (a : t array) off len (c : t) =
  if len < 0 || off < 0 || off > Array.length a - len then
    invalid_arg "Content.fill";
  for i = off to off + len - 1 do
    Array.unsafe_set a i c
  done

(* Image sector [lba] at position [pos] has the run value
   [image lba - 4 pos], which the next image sector at the next position
   shares. The arithmetic wraps modulo 2^63 as the packing does, so
   adding [4 pos] back gives [image lba] exactly even where the
   subtraction wrapped, and a run whose LBAs cross from [2^60 - 1] to
   [-2^60] (which packs to [image (2^60 - 1) + 4] in the same modular
   arithmetic) still comes back sector by sector. Any other sector is
   its own run value. *)
let run_of c ~pos = if c land 3 = kind_image then c - (pos lsl 2) else c

let fill_run (a : t array) off len ~run ~pos =
  if len < 0 || off < 0 || off > Array.length a - len then
    invalid_arg "Content.fill_run";
  if run land 3 = kind_image then begin
    let c = ref (run + (pos lsl 2)) in
    for i = off to off + len - 1 do
      Array.unsafe_set a i !c;
      c := !c + 4
    done
  end
  else fill a off len run

(* Free lists of sector-content scratch arrays, shared process-wide.
   Requests of up to [exact_max] sectors (AoE fragments, multicast fill
   copies) get arrays of exactly their length; longer ones get the
   power-of-two size class above them, so the pool holds a bounded set
   of lengths however many distinct counts a fleet asks for. [alloc]
   zeroes the window it hands out, which is what [Array.make] would
   yield there, so pool state never influences simulated values and
   determinism across runs and sims is untouched. *)
module Scratch = struct
  type bucket = { mutable stack : t array array; mutable n : int }

  (* Buckets by array length. *)
  module Lengths = Bmcast_engine.Int_table

  let buckets : bucket Lengths.t = Lengths.create 16
  let empty : t array = [||]
  let exact_max = 256

  (* The power-of-two size class of a request of [len > exact_max]. *)
  let size_class len =
    let c = ref (2 * exact_max) in
    while !c < len do
      c := 2 * !c
    done;
    !c

  (* The length of the array that serves a request of [len > 0]. *)
  let class_length len = if len <= exact_max then len else size_class len

  (* One-entry memo: steady-state traffic uses very few distinct sizes
     (fragment size and max command size), so skip the table lookup. *)
  let mutable_len = ref (-1)
  let mutable_bucket = ref { stack = [||]; n = 0 }

  let bucket len =
    if !mutable_len = len then !mutable_bucket
    else begin
      let b =
        match Lengths.find buckets len with
        | b -> b
        | exception Not_found ->
          let b = { stack = [||]; n = 0 } in
          Lengths.add buckets len b;
          b
      in
      mutable_len := len;
      mutable_bucket := b;
      b
    end

  let alloc len =
    if len < 0 then invalid_arg "Content.Scratch.alloc: negative length";
    if len = 0 then empty
    else begin
      let c = class_length len in
      let b = bucket c in
      if b.n > 0 then begin
        let n = b.n - 1 in
        b.n <- n;
        let a = b.stack.(n) in
        b.stack.(n) <- empty;
        fill a 0 len zero;
        a
      end
      else Array.make c zero
    end

  (* An array of a length [alloc] never hands out is left to the GC. *)
  let release a =
    let len = Array.length a in
    if len > 0 && class_length len = len then begin
      let b = bucket len in
      if b.n = Array.length b.stack then begin
        let grown = Array.make (max 8 (2 * b.n)) empty in
        Array.blit b.stack 0 grown 0 b.n;
        b.stack <- grown
      end;
      b.stack.(b.n) <- a;
      b.n <- b.n + 1
    end

  let free_count len =
    match Lengths.find buckets len with b -> b.n | exception Not_found -> 0
end

let tag_counter = ref 0

let fresh_tag () =
  incr tag_counter;
  !tag_counter

let image_sectors ~lba ~count = Array.init count (fun i -> image (lba + i))

let data_sectors ~count =
  let tag = fresh_tag () in
  Array.make count (data tag)

let zeroes ~count = Array.make count zero
