type handler = { read : int -> int; write : int -> int -> unit }

type interposer = {
  on_read : next:(int -> int) -> int -> int;
  on_write : next:(int -> int -> unit) -> int -> int -> unit;
}

type region = {
  base : int;
  size : int;
  device : handler;
  mutable interposer : interposer option;
}

type t = {
  mutable regions : region list;
  mutable trapped : int;
  mutable profile : Bmcast_obs.Profile.t;
}

let create () = { regions = []; trapped = 0; profile = Bmcast_obs.Profile.null }

let set_profile t p = t.profile <- p

let overlaps a_base a_size b_base b_size =
  a_base < b_base + b_size && b_base < a_base + a_size

let map t ~base ~size handler =
  if size <= 0 then invalid_arg "Mmio.map: size must be positive";
  List.iter
    (fun r ->
      if overlaps base size r.base r.size then
        invalid_arg
          (Printf.sprintf "Mmio.map: region 0x%x overlaps existing 0x%x" base
             r.base))
    t.regions;
  t.regions <- { base; size; device = handler; interposer = None } :: t.regions

let find_by_base t base =
  match List.find_opt (fun r -> r.base = base) t.regions with
  | Some r -> r
  | None -> invalid_arg (Printf.sprintf "Mmio: no region mapped at 0x%x" base)

let unmap t ~base =
  (* A silent no-op here would let a typo'd teardown leave a stale
     device mapped; insist the region exists, like [find_by_base]. *)
  ignore (find_by_base t base : region);
  t.regions <- List.filter (fun r -> r.base <> base) t.regions

(* Closed over nothing, so a lookup allocates no closure. *)
let find_region t addr =
  let rec go addr = function
    | r :: rest ->
      if addr >= r.base && addr < r.base + r.size then r else go addr rest
    | [] -> invalid_arg (Printf.sprintf "Mmio: unmapped address 0x%x" addr)
  in
  go addr t.regions

let interpose t ~base ix =
  let r = find_by_base t base in
  if r.interposer <> None then
    invalid_arg "Mmio.interpose: region already interposed";
  r.interposer <- Some ix

let remove_interposer t ~base =
  let r = find_by_base t base in
  r.interposer <- None

(* Only the non-interposed branch is profiler-scoped: interposers
   dispatch into mediator handlers whose service paths can suspend the
   fiber, and a profiler scope must not cross a scheduling point. The
   direct register path is where the boxed-Int64 traffic the allocation
   diet targets lived (ROADMAP) — values now travel as untagged [int]. *)
let read t addr =
  let r = find_region t addr in
  let off = addr - r.base in
  match r.interposer with
  | None ->
    if Bmcast_obs.Profile.enabled t.profile then begin
      Bmcast_obs.Profile.enter t.profile "mmio.read";
      let v = r.device.read off in
      Bmcast_obs.Profile.exit t.profile "mmio.read";
      v
    end
    else r.device.read off
  | Some ix ->
    t.trapped <- t.trapped + 1;
    ix.on_read ~next:r.device.read off

let write t addr v =
  let r = find_region t addr in
  let off = addr - r.base in
  match r.interposer with
  | None ->
    if Bmcast_obs.Profile.enabled t.profile then begin
      Bmcast_obs.Profile.enter t.profile "mmio.write";
      r.device.write off v;
      Bmcast_obs.Profile.exit t.profile "mmio.write"
    end
    else r.device.write off v
  | Some ix ->
    t.trapped <- t.trapped + 1;
    ix.on_write ~next:r.device.write off v

let trapped_accesses t = t.trapped
