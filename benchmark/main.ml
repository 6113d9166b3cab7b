(* The repository benchmark.

     dune exec benchmark/main.exe -- benchmark              # every workload, 5 reps
     dune exec benchmark/main.exe -- benchmark --reps 10 \
       --parent PARENT/main.exe                             # alternating pairs
     dune exec benchmark/main.exe -- benchmark compare A.json B.json
     dune exec benchmark/main.exe -- run --workload guest_io --seed 42 \
       --seconds 20 --trace 0                               # one workload, once
     dune exec benchmark/main.exe -- spec > BENCHMARK.json

   See benchmark/README.md for the workloads, metrics and bounds. *)

open Bmcast_ledger
open Cmdliner

let workload_conv =
  let parse s =
    match Workload.of_name s with
    | Some w -> Ok w
    | None ->
      Error
        (`Msg
           (Printf.sprintf "unknown workload %S (expected one of %s)" s
              (String.concat ", " (List.map Workload.name Workload.all))))
  in
  Arg.conv (parse, fun ppf w -> Format.pp_print_string ppf (Workload.name w))

let mode_conv =
  let parse s =
    match Workload.mode_of_name s with
    | Some m -> Ok m
    | None -> Error (`Msg ("unknown mode " ^ s))
  in
  Arg.conv (parse, fun ppf m -> Format.pp_print_string ppf (Workload.mode_name m))

let seed =
  Arg.(
    value & opt int Spec.default_seed
    & info [ "seed" ] ~docv:"N" ~doc:"Seed of the simulation; same seed, same inputs.")

let trace_dir =
  Arg.(
    value
    & opt (some dir) None
    & info [ "trace-dir" ] ~docv:"DIR"
        ~doc:
          "Keep each traced rep's Chrome trace, metrics registry and \
           allocation profile in $(docv).")

let run_cmd =
  let workload =
    Arg.(required & opt (some workload_conv) None & info [ "workload" ] ~docv:"W")
  in
  let seconds =
    Arg.(
      value
      & opt float (float_of_int Spec.run_seconds)
      & info [ "seconds" ] ~docv:"S" ~doc:"Keep starting reps for $(docv) seconds.")
  in
  let trace =
    Arg.(
      value & opt int 0
      & info [ "trace" ] ~docv:"0|1"
          ~doc:"0: end-to-end metrics from timed reps; 1: the per-layer ledger.")
  in
  let run w seed seconds trace =
    let result, correct = Runner.drive w ~seed ~seconds ~traced:(trace <> 0) in
    print_endline (Json.to_string result);
    if correct then 0 else 1
  in
  Cmd.v
    (Cmd.info "run"
       ~doc:"One benchmark run of one workload; prints a JSON result line.")
    Term.(const run $ workload $ seed $ seconds $ trace)

let benchmark_cmd =
  let workloads =
    Arg.(
      value & opt_all workload_conv Workload.all
      & info [ "workload" ] ~docv:"W" ~doc:"Run only $(docv) (repeatable).")
  in
  let reps =
    Arg.(
      value & opt int Spec.default_reps
      & info [ "reps" ] ~docv:"K" ~doc:"Timed reps per workload.")
  in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"FILE"
          ~doc:"Write the set (every rep's values) as JSON, for $(b,compare).")
  in
  let parent =
    Arg.(
      value
      & opt (some file) None
      & info [ "parent" ] ~docv:"EXE"
          ~doc:
            "Also run every rep with $(docv), the parent commit's build of \
             this program, alternating which side goes first, and compare \
             the two sets.")
  in
  let parent_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "parent-out" ] ~docv:"FILE"
          ~doc:"With $(b,--parent): write the parent's set as JSON.")
  in
  let set workloads reps seed trace_dir out parent parent_out =
    let sets, parent_sets =
      Runner.run_set ?parent ~workloads ~reps ~seed ~trace_dir ()
    in
    Runner.print_set sets;
    let pairing =
      Option.map
        (fun _ -> Printf.sprintf "%d-%.0f" (Unix.getpid ()) (Unix.gettimeofday ()))
        parent
    in
    let json sets = Runner.set_json ?pairing ~seed ~reps sets in
    let write path sets =
      Runner.write_file path (Json.to_string (json sets) ^ "\n")
    in
    Option.iter (fun path -> write path sets) out;
    let compared =
      match parent_sets with
      | None -> 0
      | Some p ->
        Option.iter (fun path -> write path p) parent_out;
        print_newline ();
        Compare.report ~parent:(json p) ~change:(json sets)
    in
    if compared = 0 && List.for_all Runner.set_correct sets then 0 else 1
  in
  let compare =
    let file n =
      Arg.(required & pos n (some file) None & info [] ~docv:"FILE")
    in
    Cmd.v
      (Cmd.info "compare"
         ~doc:"Judge a change's set against its parent's, metric by metric.")
      Term.(const Compare.main $ file 0 $ file 1)
  in
  Cmd.group
    ~default:
      Term.(
        const set $ workloads $ reps $ seed $ trace_dir $ out $ parent $ parent_out)
    (Cmd.info "benchmark"
       ~doc:
         "Run a checked reference rep of every workload, then their timed \
          reps round-robin, then a traced rep each; print the end-to-end \
          metrics and the per-layer ledger.")
    [ compare ]

let rep_cmd =
  let workload =
    Arg.(required & opt (some workload_conv) None & info [ "workload" ] ~docv:"W")
  in
  let mode =
    Arg.(value & opt mode_conv Workload.Timed & info [ "mode" ] ~docv:"MODE")
  in
  let rep w seed mode trace_dir =
    Runner.child w ~seed ~mode ~trace_dir;
    0
  in
  Cmd.v
    (Cmd.info "rep" ~doc:"One rep in this process (what the other commands spawn).")
    Term.(const rep $ workload $ seed $ mode $ trace_dir)

let spec_cmd =
  Cmd.v
    (Cmd.info "spec" ~doc:"Print BENCHMARK.json.")
    Term.(
      const (fun () ->
          print_string (Spec.benchmark_json ());
          0)
      $ const ())

let () =
  exit
    (Cmd.eval'
       (Cmd.group
          (Cmd.info "main" ~doc:"The BMcast simulator benchmark.")
          [ run_cmd; benchmark_cmd; rep_cmd; spec_cmd ]))
