module Sysbench = Bmcast_guest.Sysbench

type point = {
  block_kb : int;
  bare_mib_s : float;
  deploy_mib_s : float;
  kvm_mib_s : float;
}

let default_blocks = [ 1; 2; 4; 8; 16 ]

let sweep_on make_stack blocks =
  let env = Stacks.make_env ~image_gb:4 () in
  let m = Stacks.machine env ~name:"node" () in
  let out = ref [] in
  Stacks.run env (fun () ->
      let rt = make_stack env m in
      out :=
        List.map
          (fun kb ->
            let r = Sysbench.run_memory rt ~block_bytes:(kb * 1024) in
            (kb, r.Sysbench.throughput_mib_s))
          blocks);
  !out

let measure ?(block_kbs = default_blocks) () =
  let bare = sweep_on (fun env m -> Stacks.bare env m) block_kbs in
  let deploy = sweep_on (fun env m -> fst (Stacks.bmcast env m ())) block_kbs in
  let kvm = sweep_on (fun env m -> fst (Stacks.kvm_local env m)) block_kbs in
  List.map
    (fun (kb, bare_mib_s) ->
      { block_kb = kb;
        bare_mib_s;
        deploy_mib_s = List.assoc kb deploy;
        kvm_mib_s = List.assoc kb kvm })
    bare

let run () =
  Report.section "Figure 9: SysBench memory (block-size sweep)";
  let points = measure () in
  (* The paper quotes overhead as extra execution time (bare/virt - 1),
     not throughput loss. *)
  let overhead bare v = ((bare /. v) -. 1.0) *. 100.0 in
  Report.series_header
    [ "bare(MiB/s)"; "deploy"; "kvm"; "dep ovh %"; "kvm ovh %" ];
  List.iter
    (fun p ->
      Report.series_row
        (Printf.sprintf "%d KB blocks" p.block_kb)
        [ p.bare_mib_s;
          p.deploy_mib_s;
          p.kvm_mib_s;
          overhead p.bare_mib_s p.deploy_mib_s;
          overhead p.bare_mib_s p.kvm_mib_s ])
    points;
  (match List.rev points with
  | last :: _ when last.block_kb = 16 ->
    Report.row ~label:"BMcast overhead at 16 KB" ~paper:6.0 ~units:"%"
      (overhead last.bare_mib_s last.deploy_mib_s);
    Report.row ~label:"KVM overhead at 16 KB" ~paper:35.0 ~units:"%"
      (overhead last.bare_mib_s last.kvm_mib_s)
  | _ -> ())
