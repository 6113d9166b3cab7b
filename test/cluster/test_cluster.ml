(* Tests for MPI collectives over the InfiniBand model. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Ib = Bmcast_net.Ib
module Mpi = Bmcast_cluster.Mpi

let check_bool = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let with_comm ?compute ?(nodes = 10) ?(overhead = 0) f =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let eps =
    Array.init nodes (fun i ->
        let ep = Ib.attach ib ~name:(Printf.sprintf "n%d" i) in
        Ib.set_op_overhead ep overhead;
        ep)
  in
  let comm = Mpi.create ?compute eps in
  let out = ref None in
  Sim.spawn_at sim Time.zero (fun () -> out := Some (f comm));
  Sim.run sim;
  Option.get !out

let test_all_collectives_terminate () =
  (* Every collective completes (no rendezvous deadlock) for several
     cluster sizes, including non-powers of two. *)
  List.iter
    (fun nodes ->
      ignore
        (with_comm ~nodes (fun comm ->
             List.iter
               (fun coll -> ignore (Mpi.run comm coll ~bytes:4096 : Time.span))
               Mpi.all_collectives)))
    [ 2; 3; 5; 8; 10 ]

let test_latency_positive_and_scales () =
  let small, large =
    with_comm (fun comm ->
        ( Mpi.latency comm Mpi.Allgather ~bytes:1024 ~iterations:5 (),
          Mpi.latency comm Mpi.Allgather ~bytes:65536 ~iterations:5 () ))
  in
  check_bool "positive" true (small > 0.0);
  check_bool "bigger messages slower" true (large > small)

let test_overhead_raises_latency () =
  let base =
    with_comm ~overhead:0 (fun comm ->
        Mpi.latency comm Mpi.Allgather ~bytes:8192 ~iterations:5 ())
  in
  let virt =
    with_comm ~overhead:(Time.us 5) (fun comm ->
        Mpi.latency comm Mpi.Allgather ~bytes:8192 ~iterations:5 ())
  in
  check_bool
    (Printf.sprintf "virt %.1f > base %.1f" virt base)
    true (virt > base *. 1.5)

let test_allgather_scales_with_nodes () =
  (* Ring allgather does p-1 rounds: latency grows with cluster size. *)
  let l4 =
    with_comm ~nodes:4 (fun c -> Mpi.latency c Mpi.Allgather ~bytes:8192 ~iterations:5 ())
  in
  let l10 =
    with_comm ~nodes:10 (fun c -> Mpi.latency c Mpi.Allgather ~bytes:8192 ~iterations:5 ())
  in
  check_bool "more nodes slower" true (l10 > l4 *. 2.0)

let test_bcast_cheaper_than_allgather () =
  (* Binomial bcast is O(log p) rounds vs the ring's O(p). *)
  let b, a =
    with_comm (fun c ->
        ( Mpi.latency c Mpi.Bcast ~bytes:8192 ~iterations:5 (),
          Mpi.latency c Mpi.Allgather ~bytes:8192 ~iterations:5 () ))
  in
  check_bool "bcast cheaper" true (b < a)

let test_compute_hook_called () =
  let calls = ref 0 in
  ignore
    (with_comm
       ~compute:(fun ~bytes ->
         check_int "bytes" 4096 bytes;
         incr calls)
       (fun c -> Mpi.run c Mpi.Allreduce ~bytes:4096));
  check_bool "reduction compute ran" true (!calls > 0)

let test_create_requires_two_ranks () =
  let sim = Sim.create () in
  let ib = Ib.create sim in
  let ep = Ib.attach ib ~name:"solo" in
  check_bool "raises" true
    (try
       ignore (Mpi.create [| ep |] : Mpi.comm);
       false
     with Invalid_argument _ -> true)

let test_names () =
  check_int "eight collectives" 8 (List.length Mpi.all_collectives);
  Alcotest.(check string) "name" "Allreduce" (Mpi.name Mpi.Allreduce)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "cluster"
    [ ( "mpi",
        [ tc "all collectives terminate" `Quick test_all_collectives_terminate;
          tc "latency positive and scales" `Quick test_latency_positive_and_scales;
          tc "overhead raises latency" `Quick test_overhead_raises_latency;
          tc "allgather scales with nodes" `Quick test_allgather_scales_with_nodes;
          tc "bcast cheaper than allgather" `Quick test_bcast_cheaper_than_allgather;
          tc "compute hook called" `Quick test_compute_hook_called;
          tc "requires two ranks" `Quick test_create_requires_two_ranks;
          tc "names" `Quick test_names ] ) ]
