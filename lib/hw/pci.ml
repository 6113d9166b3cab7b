type bdf = { bus : int; dev : int; fn : int }

type device = {
  bdf : bdf;
  vendor_id : int;
  device_id : int;
  class_code : int;
  bars : (int * int) list;
}

type slot = { device : device; mutable hidden : bool }

type t = { mutable slots : slot list }

let create () = { slots = [] }

let add t device =
  if List.exists (fun s -> s.device.bdf = device.bdf) t.slots then
    invalid_arg "Pci.add: BDF already present";
  t.slots <- { device; hidden = false } :: t.slots

let bdf_compare a b = compare (a.bus, a.dev, a.fn) (b.bus, b.dev, b.fn)

let scan t =
  t.slots
  |> List.filter (fun s -> not s.hidden)
  |> List.map (fun s -> s.device)
  |> List.sort (fun a b -> bdf_compare a.bdf b.bdf)

let find_slot t bdf = List.find_opt (fun s -> s.device.bdf = bdf) t.slots

let find t bdf =
  match find_slot t bdf with
  | Some s when not s.hidden -> Some s.device
  | Some _ | None -> None

let hide t bdf =
  match find_slot t bdf with
  | Some s -> s.hidden <- true
  | None -> invalid_arg "Pci.hide: no such device"

let unhide t bdf =
  match find_slot t bdf with
  | Some s -> s.hidden <- false
  | None -> invalid_arg "Pci.unhide: no such device"
