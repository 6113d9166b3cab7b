type handler = { inp : int -> int; outp : int -> int -> unit }

type interposer = {
  on_in : next:(int -> int) -> int -> int;
  on_out : next:(int -> int -> unit) -> int -> int -> unit;
}

type range = {
  base : int;
  count : int;
  device : handler;
  mutable interposer : interposer option;
}

type t = { mutable ranges : range list; mutable trapped : int }

let create () = { ranges = []; trapped = 0 }

let map t ~base ~count handler =
  if count <= 0 then invalid_arg "Pio.map: count must be positive";
  List.iter
    (fun r ->
      if base < r.base + r.count && r.base < base + count then
        invalid_arg (Printf.sprintf "Pio.map: port range 0x%x overlaps" base))
    t.ranges;
  t.ranges <- { base; count; device = handler; interposer = None } :: t.ranges

(* Closed over nothing, so a lookup allocates no closure. *)
let find_range t port =
  let rec go port = function
    | r :: rest ->
      if port >= r.base && port < r.base + r.count then r else go port rest
    | [] -> invalid_arg (Printf.sprintf "Pio: unmapped port 0x%x" port)
  in
  go port t.ranges

let find_by_base t base =
  match List.find_opt (fun r -> r.base = base) t.ranges with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Pio: no range mapped at 0x%x" base)

let interpose t ~base ix =
  let r = find_by_base t base in
  if r.interposer <> None then invalid_arg "Pio.interpose: already interposed";
  r.interposer <- Some ix

let remove_interposer t ~base =
  let r = find_by_base t base in
  r.interposer <- None

let inp t port =
  let r = find_range t port in
  let off = port - r.base in
  match r.interposer with
  | None -> r.device.inp off
  | Some ix ->
    t.trapped <- t.trapped + 1;
    ix.on_in ~next:r.device.inp off

let outp t port v =
  let r = find_range t port in
  let off = port - r.base in
  match r.interposer with
  | None -> r.device.outp off v
  | Some ix ->
    t.trapped <- t.trapped + 1;
    ix.on_out ~next:r.device.outp off v

let trapped_accesses t = t.trapped
