type phase = Bare | Deploying | Devirtualized | Kvm

let pp_phase fmt = function
  | Bare -> Format.pp_print_string fmt "bare-metal"
  | Deploying -> Format.pp_print_string fmt "deploying"
  | Devirtualized -> Format.pp_print_string fmt "de-virtualized"
  | Kvm -> Format.pp_print_string fmt "kvm"

type t = {
  label : string;
  machine : Machine.t;
  block_read : lba:int -> count:int -> Bmcast_storage.Content.t array -> unit;
  block_write : lba:int -> count:int -> Bmcast_storage.Content.t array -> unit;
  cpu : Cpu_model.t;
  phase : unit -> phase;
}

let cpu_run t ~core ~work ~mem_intensity =
  Cpu_model.run t.machine.Machine.cpu t.cpu ~core ~work ~mem_intensity
