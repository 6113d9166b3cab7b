(* Figure harness: regenerates every figure of the paper's evaluation
   (Figures 4-14), the design-choice ablations, the multi-instance
   scale-up study, and on request the fleet sweeps. The simulator's own
   host cost is measured elsewhere: the repository benchmark,
   benchmark/, times whole runs and single hot paths against a parent
   build in pairs, and the test suites' memory sections gate the words
   the hot paths allocate exactly.

     dune exec bench/main.exe            # everything but the fleet sweeps
     dune exec bench/main.exe -- fig4 fig10
     dune exec bench/main.exe -- fleet   # writes BENCH_fleet.json *)

open Bmcast_experiments

(* --- experiment registry --- *)

(* [metrics_dir] turns on per-phase metrics snapshots for the
   experiments that support them, written as BENCH_<name>.json. *)
let experiments ~metrics_dir =
  let out name =
    Option.map
      (fun dir -> Filename.concat dir (Printf.sprintf "BENCH_%s.json" name))
      metrics_dir
  in
  [ ("fig4", fun () -> Fig04_startup.run ?metrics_out:(out "fig4") ());
    ( "fig4-quick",
      fun () ->
        Fig04_startup.run ~image_gb:4 ?metrics_out:(out "fig4_quick") () );
    ("fig5", fun () -> Fig05_database.run ());
    ("fig6", fun () -> Fig06_mpi.run ());
    ("fig7", fun () -> Fig07_kernbench.run ());
    ("fig8", fun () -> Fig08_threads.run ());
    ("fig9", fun () -> Fig09_memory.run ());
    ("fig10", fun () -> Fig10_storage_tput.run ());
    ("fig11", fun () -> Fig11_storage_lat.run ());
    ("fig12", fun () -> Fig12_13_infiniband.run ());
    ("fig13", fun () -> Fig12_13_infiniband.run ());
    ("fig14", fun () -> Fig14_moderation.run ());
    ("ablations", fun () -> Ablations.run ());
    ("scaleup", fun () -> Scaleup.run ());
    ( "fleet",
      fun () ->
        (* The fleet sweep always snapshots: BENCH_fleet.json is the
           artifact CI uploads. It covers three regimes: the replica
           sweep (256 MB images), the cloud-burst scale sweep
           (250/1,000 clients, minimal guests), and the
           distribution-crossover sweep (replica fan-out vs P2P vs
           multicast under constrained uplinks). *)
        let metrics_out =
          Option.value (out "fleet") ~default:"BENCH_fleet.json"
        in
        let std = Scaleout.run () in
        let scale = Scaleout.run_scale () in
        (* The crossover curve also lands in its own snapshot so CI can
           upload it as a standalone artifact. *)
        let crossover =
          Scaleout.run_crossover ~metrics_out:"BENCH_crossover.json" ()
        in
        Scaleout.write_metrics metrics_out (std @ scale @ crossover);
        Report.note "wrote %s" metrics_out );
    ( "fleet10k",
      fun () ->
        (* Opt-in (several minutes): the 10,000-machine burst the
           engine rework targets, in [Scaleout.run_scale]'s shape. It
           also reports memory: the most live heap of samples taken
           after a full major collection every 5 virtual seconds, and
           the top of the major heap. The samples are daemon events, so
           they count in "sim Mevents". *)
        let peak = ref 0 in
        let sample () =
          Gc.full_major ();
          peak := max !peak (Gc.stat ()).Gc.live_words
        in
        let r =
          Scaleout.deploy_fleet ~image_mb:8
            ~boot_profile:Bmcast_guest.Os.cloud_minimal
            ~chaos:(fun sim _ _ ->
              ignore
                (Bmcast_engine.Sim.every sim (Bmcast_engine.Time.s 5) sample
                  : unit -> unit))
            ~machines:10_000 ~replicas:64 ()
        in
        let mb words = float_of_int (words * (Sys.word_size / 8)) /. 1e6 in
        Report.section
          "Fleet scale-out, cloud-burst regime: 10,000 clients x 64 replicas \
           (8 MB images, minimal guests)";
        Report.series_header
          [ "ttfb p50(s)"; "ttdv p50(s)"; "ttdv max(s)"; "sim Mevents";
            "peak live MB"; "top heap MB" ];
        Report.series_row
          (Printf.sprintf "%dx%d (q<=%d)" r.Scaleout.machines
             r.Scaleout.replicas r.Scaleout.peak_queue)
          [ r.Scaleout.ttfb.Scaleout.p50;
            r.Scaleout.ttdv.Scaleout.p50;
            r.Scaleout.ttdv.Scaleout.max;
            float_of_int r.Scaleout.sim_events /. 1e6;
            mb !peak;
            mb (Gc.quick_stat ()).Gc.top_heap_words ];
        Option.iter
          (fun path ->
            Scaleout.write_metrics path [ r ];
            Report.note "wrote %s" path)
          (out "fleet10k") ) ]

(* "all" runs the fig12/fig13 pair once. *)
let all_keys =
  [ "fig4"; "fig5"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11";
    "fig12"; "fig14"; "ablations"; "scaleup" ]

(* "quick": the sub-minute figures, with fig4 on a smaller image. *)
let quick_keys =
  [ "fig4-quick"; "fig6"; "fig7"; "fig8"; "fig9"; "fig10"; "fig11"; "fig12" ]

let run_named experiments name =
  match List.assoc_opt name experiments with
  | Some f ->
    f ();
    true
  | None ->
    Printf.eprintf "unknown experiment %S\n" name;
    false

let main metrics_dir names =
  let experiments = experiments ~metrics_dir in
  let names =
    match names with
    | [] | [ "all" ] -> all_keys
    | [ "quick" ] -> quick_keys
    | names -> names
  in
  Printf.printf
    "BMcast evaluation harness - regenerating %d experiment group(s)\n%!"
    (List.length names);
  if List.for_all (run_named experiments) names then 0 else 1

let () =
  let open Cmdliner in
  let names = Arg.(value & pos_all string [] & info [] ~docv:"EXPERIMENT") in
  let metrics_dir =
    Arg.(
      value
      & opt (some dir) None
      & info [ "metrics-dir" ] ~docv:"DIR"
          ~doc:
            "Write per-experiment metrics snapshots (BENCH_<name>.json) \
             into $(docv).")
  in
  let doc =
    "Regenerate the BMcast paper's tables and figures (fig4-fig14, \
     ablations, scaleup, fleet, or the 'quick' subset; default: all)"
  in
  let cmd =
    Cmd.v
      (Cmd.info "bmcast-bench" ~doc)
      Term.(const main $ metrics_dir $ names)
  in
  exit (Cmd.eval' cmd)
