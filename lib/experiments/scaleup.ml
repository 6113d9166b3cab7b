module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Signal = Bmcast_engine.Signal
module Os = Bmcast_guest.Os
module Image_copy = Bmcast_baselines.Image_copy

type result = {
  instances : int;
  strategy : string;
  mean_ready_s : float;
  max_ready_s : float;
}

let stats instances strategy ready_times =
  let n = float_of_int (List.length ready_times) in
  { instances;
    strategy;
    mean_ready_s = List.fold_left ( +. ) 0.0 ready_times /. n;
    max_ready_s = List.fold_left Float.max 0.0 ready_times }

(* Provision [n] machines concurrently; [provision_one] runs in each
   instance's own process and returns at OS-ready. *)
let fleet env n provision_one =
  let ready = ref [] in
  let done_count = ref 0 in
  Stacks.run env (fun () ->
      let all_done = Signal.Latch.create () in
      for i = 0 to n - 1 do
        let m = Stacks.machine env ~name:(Printf.sprintf "node%d" i) () in
        Sim.spawn (fun () ->
            let t0 = Sim.clock () in
            provision_one env m;
            ready := Time.to_float_s (Time.diff (Sim.clock ()) t0) :: !ready;
            incr done_count;
            if !done_count = n then Signal.Latch.set all_done)
      done;
      Signal.Latch.wait all_done);
  !ready

let bmcast_one env m =
  let rt, _vmm = Stacks.bmcast env m () in
  Os.boot rt ()

let copy_one env m =
  let clients =
    [ Stacks.iscsi_client env ~name:(m.Bmcast_platform.Machine.name ^ "-c0");
      Stacks.iscsi_client env ~name:(m.Bmcast_platform.Machine.name ^ "-c1") ]
  in
  ignore
    (Image_copy.deploy m ~servers:clients
       ~image_sectors:env.Stacks.image_sectors
      : Image_copy.breakdown);
  let rt = Stacks.bare env m in
  Os.boot rt ()

let measure ?(image_gb = 8) ?(counts = [ 1; 2; 4; 8 ]) () =
  List.concat_map
    (fun n ->
      let bmcast =
        stats n "BMcast"
          (fleet (Stacks.make_env ~image_gb ~vblade_ram_cache:true ()) n
             bmcast_one)
      in
      let copy =
        stats n "Image Copy"
          (fleet (Stacks.make_env ~image_gb ()) n copy_one)
      in
      [ bmcast; copy ])
    counts

let run () =
  Report.section "Scale-up: N instances provisioned simultaneously (8 GB images)";
  let results = measure () in
  Report.series_header [ "mean ready(s)"; "max ready(s)" ];
  List.iter
    (fun r ->
      Report.series_row
        (Printf.sprintf "N=%d %s" r.instances r.strategy)
        [ r.mean_ready_s; r.max_ready_s ])
    results;
  (* The claim: BMcast's ready time barely grows with N, image copy's
     grows ~linearly once the server port saturates. *)
  let find n s =
    List.find (fun r -> r.instances = n && r.strategy = s) results
  in
  let last = List.fold_left (fun acc r -> max acc r.instances) 1 results in
  Report.row ~label:"BMcast slowdown N=1 -> max" ~units:"x"
    ((find last "BMcast").mean_ready_s /. (find 1 "BMcast").mean_ready_s);
  Report.row ~label:"Image-copy slowdown N=1 -> max" ~units:"x"
    ((find last "Image Copy").mean_ready_s /. (find 1 "Image Copy").mean_ready_s)
