module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Ib = Bmcast_net.Ib
module Mpi = Bmcast_cluster.Mpi
module Kvm = Bmcast_baselines.Kvm

type result = {
  collective : string;
  bare_us : float;
  bmcast_us : float;
  kvm_us : float;
}

(* One isolated IB cluster per configuration; [overhead] is the per-op
   posting adder every node's HCA pays and [compute_factor] the
   virtualization stretch on the reduction operator (MPI stack +
   summation, ~2 ns/byte bare). *)
let cluster_latencies ~nodes ~bytes ~overhead ~compute_factor =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let eps =
    Array.init nodes (fun i ->
        let ep = Ib.attach ib ~name:(Printf.sprintf "node%d" i) in
        Ib.set_op_overhead ep overhead;
        ep)
  in
  let compute ~bytes =
    Sim.sleep
      (Time.of_float_s (float_of_int bytes *. 2e-9 *. compute_factor))
  in
  let comm = Mpi.create ~compute eps in
  let out = ref [] in
  Sim.spawn_at sim Time.zero (fun () ->
      out :=
        List.map
          (fun coll -> (Mpi.name coll, Mpi.latency comm coll ~bytes ()))
          Mpi.all_collectives);
  Sim.run sim;
  !out

let measure ?(nodes = 10) ?(bytes = 8192) () =
  let bare = cluster_latencies ~nodes ~bytes ~overhead:0 ~compute_factor:1.0 in
  (* BMcast leaves the assigned InfiniBand HCA untouched; deployment
     adds CPU taxes to the reduction compute and a sub-us posting
     effect. *)
  let bmcast =
    cluster_latencies ~nodes ~bytes ~overhead:(Time.ns 80) ~compute_factor:1.06
  in
  let kvm =
    cluster_latencies ~nodes ~bytes ~overhead:Kvm.ib_op_overhead
      ~compute_factor:1.3
  in
  List.map
    (fun (name, bare_us) ->
      { collective = name;
        bare_us;
        bmcast_us = List.assoc name bmcast;
        kvm_us = List.assoc name kvm })
    bare

let paper_kvm_pct = function
  | "Allgather" -> Some 235.0
  | "Allreduce" -> Some 135.0
  | _ -> None

let paper_bmcast_pct = function
  | "Allgather" -> Some 100.0
  | "Allreduce" -> Some 122.0
  | _ -> None

let run () =
  Report.section "Figure 6: MPI collective latency (10-node InfiniBand cluster)";
  let results = measure () in
  Report.series_header [ "bare(us)"; "BMcast(us)"; "KVM(us)"; "BM %"; "KVM %" ];
  List.iter
    (fun r ->
      Report.series_row r.collective
        [ r.bare_us;
          r.bmcast_us;
          r.kvm_us;
          r.bmcast_us /. r.bare_us *. 100.0;
          r.kvm_us /. r.bare_us *. 100.0 ])
    results;
  List.iter
    (fun r ->
      (match paper_bmcast_pct r.collective with
      | Some p ->
        Report.row
          ~label:(r.collective ^ " BMcast vs bare")
          ~paper:p ~units:"%"
          (r.bmcast_us /. r.bare_us *. 100.0)
      | None -> ());
      match paper_kvm_pct r.collective with
      | Some p ->
        Report.row
          ~label:(r.collective ^ " KVM vs bare")
          ~paper:p ~units:"%"
          (r.kvm_us /. r.bare_us *. 100.0)
      | None -> ())
    results
