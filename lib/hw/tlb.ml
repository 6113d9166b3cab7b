type mode = Native | Nested_paging | Nested_paging_host

(* Calibration: sysbench-memory is ~fully memory bound; paper reports 6%
   overhead for BMcast and 35% for KVM (nested paging + host cache
   pollution) at 16 KB blocks. BMcast's 6% is split between the nested
   tax and the deployment threads' CPU steal (Params.deploy_steal). *)

(* Slowdown at mem_intensity = 1 under plain nested paging. *)
let nested_tax = 0.035

(* Additional slowdown at mem_intensity = 1 from host cache pollution. *)
let host_pollution_tax = 0.315

let host_tax = nested_tax +. host_pollution_tax

(* Constants: returning one allocates nothing, even across modules. *)
let tax = function
  | Native -> 0.0
  | Nested_paging -> nested_tax
  | Nested_paging_host -> host_tax

let check_intensity mem_intensity =
  if mem_intensity < 0.0 || mem_intensity > 1.0 then
    invalid_arg "Tlb.slowdown: mem_intensity must be in [0,1]"

let slowdown mode ~mem_intensity =
  check_intensity mem_intensity;
  1.0 +. (mem_intensity *. tax mode)
