module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Sysbench = Bmcast_guest.Sysbench

type point = {
  threads : int;
  bare_ms : float;
  deploy_ms : float;
  kvm_ms : float;
}

let default_counts = [ 1; 2; 4; 8; 12; 16; 20; 24 ]

(* One stack, many thread counts: the sweep itself is milliseconds of
   simulated time, so a single deploying VMM covers it. *)
let sweep_on make_stack counts =
  let env = Stacks.make_env ~image_gb:4 () in
  let m = Stacks.machine env ~name:"node" () in
  let out = ref [] in
  Stacks.run env (fun () ->
      let rt = make_stack env m in
      out :=
        List.map
          (fun threads ->
            let r = Sysbench.run_threads rt ~threads in
            (threads, Time.to_float_ms r.Sysbench.elapsed))
          counts);
  !out

let measure ?(thread_counts = default_counts) () =
  let bare = sweep_on (fun env m -> Stacks.bare env m) thread_counts in
  let deploy =
    sweep_on (fun env m -> fst (Stacks.bmcast env m ())) thread_counts
  in
  let kvm = sweep_on (fun env m -> fst (Stacks.kvm_local env m)) thread_counts in
  List.map
    (fun (threads, bare_ms) ->
      { threads;
        bare_ms;
        deploy_ms = List.assoc threads deploy;
        kvm_ms = List.assoc threads kvm })
    bare

let run () =
  Report.section "Figure 8: SysBench threads (mutex acquire-yield-release)";
  let points = measure () in
  Report.series_header [ "bare(ms)"; "deploy(ms)"; "kvm(ms)"; "dep %"; "kvm %" ];
  List.iter
    (fun p ->
      Report.series_row
        (Printf.sprintf "%d threads" p.threads)
        [ p.bare_ms;
          p.deploy_ms;
          p.kvm_ms;
          (p.deploy_ms /. p.bare_ms -. 1.0) *. 100.0;
          (p.kvm_ms /. p.bare_ms -. 1.0) *. 100.0 ])
    points;
  (match List.rev points with
  | last :: _ when last.threads = 24 ->
    Report.row ~label:"BMcast overhead at 24 threads" ~paper:6.0 ~units:"%"
      ((last.deploy_ms /. last.bare_ms -. 1.0) *. 100.0);
    Report.row ~label:"KVM overhead at 24 threads" ~paper:68.0 ~units:"%"
      ((last.kvm_ms /. last.bare_ms -. 1.0) *. 100.0)
  | _ -> ())
