module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Runtime = Bmcast_platform.Runtime
module Machine = Bmcast_platform.Machine

type profile = {
  total_read_bytes : int;
  op_count : int;
  sequential_fraction : float;
  span_bytes : int;
  cpu_total : Time.span;
  cpu_mem_intensity : float;
}

let default_profile =
  { total_read_bytes = 72 * 1024 * 1024;
    op_count = 4500;
    sequential_fraction = 0.5;
    span_bytes = 8 * 1024 * 1024 * 1024;
    cpu_total = Time.of_float_s 12.0;
    cpu_mem_intensity = 0.3 }

let ubuntu_1404 = default_profile

(* Windows Server 2008 (the paper's other guest; its EC2 image is the
   30-GB default of 2): a much larger boot working set, more registry /
   service churn, a longer CPU phase. *)
let windows_server_2008 =
  { total_read_bytes = 210 * 1024 * 1024;
    op_count = 9000;
    sequential_fraction = 0.45;
    span_bytes = 12 * 1024 * 1024 * 1024;
    cpu_total = Time.of_float_s 35.0;
    cpu_mem_intensity = 0.3 }

(* A stripped cloud image (small initramfs, no desktop services): the
   kind of guest a 1,000+-machine elasticity sweep provisions. Small
   enough that fleet-scale runs are dominated by deployment physics,
   not by replaying thousands of identical boot traces. *)
let cloud_minimal =
  { total_read_bytes = 8 * 1024 * 1024;
    op_count = 400;
    sequential_fraction = 0.7;
    span_bytes = 1024 * 1024 * 1024;
    cpu_total = Time.of_float_s 2.0;
    cpu_mem_intensity = 0.2 }

let trace prng p =
  let span_sectors = p.span_bytes / 512 in
  let avg_sectors = max 1 (p.total_read_bytes / 512 / p.op_count) in
  let rec gen i last_end acc remaining =
    if i >= p.op_count || remaining <= 0 then List.rev acc
    else begin
      (* Sector count: exponential around the mean, at least 1. *)
      let count =
        max 1
          (min remaining
             (int_of_float (Prng.exponential prng (float_of_int avg_sectors))))
      in
      let lba =
        if last_end > 0 && Prng.bernoulli prng p.sequential_fraction then
          last_end
        else Prng.int prng (span_sectors - count)
      in
      gen (i + 1) (lba + count) ((lba, count) :: acc) (remaining - count)
    end
  in
  gen 0 0 [] (p.total_read_bytes / 512)

let boot runtime ?(profile = default_profile) () =
  let machine = runtime.Runtime.machine in
  let prng = Prng.split (Sim.rand machine.Machine.sim) in
  let ops = trace prng profile in
  let n = List.length ops in
  let cpu_slice = Time.div profile.cpu_total (max 1 n) in
  (* One buffer, sized to the largest read, serves every read. *)
  let buf =
    Bmcast_storage.Content.zeroes
      ~count:(List.fold_left (fun m (_, count) -> max m count) 0 ops)
  in
  List.iter
    (fun (lba, count) ->
      runtime.Runtime.block_read ~lba ~count buf;
      Runtime.cpu_run runtime ~core:0 ~work:cpu_slice
        ~mem_intensity:profile.cpu_mem_intensity)
    ops
