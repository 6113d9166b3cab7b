(* Smoke test of the benchmark on shrunk workloads (16 clients, a 1 GB
   guest image), run in-process:
   - BENCHMARK.json is what [Spec] renders, and every name is valid;
   - two runs of a workload agree on every simulated metric;
   - a tampered golden digest fails the correctness check;
   - the result JSON lists every end-to-end and per-layer metric with
     its unit;
   - [compare] gives a gain only to alternating pairs, and fails a
     change that is incorrect or lacks a metric. *)

open Bmcast_ledger

let failures = ref 0

let check ok fmt =
  Printf.ksprintf
    (fun msg ->
      if not ok then begin
        incr failures;
        Printf.printf "FAIL: %s\n%!" msg
      end)
    fmt

let read path = In_channel.with_open_bin path In_channel.input_all

let spec () =
  check
    (read "../../BENCHMARK.json" = Spec.benchmark_json ())
    "BENCHMARK.json differs from `main.exe spec`";
  let names =
    List.map fst Spec.workloads
    @ List.map (fun m -> m.Spec.name) Spec.end_to_end
    @ List.map (fun m -> m.Spec.lname) Spec.per_layer
  in
  List.iter (fun n -> check (Spec.valid_name n) "invalid name %S" n) names;
  check
    (List.length (List.sort_uniq compare names) = List.length names)
    "a name is used twice";
  check
    (List.map fst Spec.workloads = List.map Workload.name Workload.all)
    "Spec and Workload list different workloads"

(* A result's "metrics" object, printed and read back, lists [expected]
   names with their units, in order. *)
let result_lists ~what expected metrics =
  let listed =
    List.map
      (fun (name, m) -> (name, Json.to_str (Json.member "unit" m)))
      (Json.to_assoc (Json.of_string (Json.to_string metrics)))
  in
  check (listed = expected) "%s result does not list every metric with its unit" what

let workloads () =
  List.iter
    (fun w ->
      let name = Workload.name w in
      let checked, host =
        Workload.run ~scale:Workload.Small w ~seed:42 ~mode:Workload.Check
      in
      let obs = Workload.make_obs () in
      let traced, _ =
        Workload.run ~scale:Workload.Small ~obs w ~seed:42 ~mode:Workload.Traced
      in
      check (checked.Workload.problems = []) "%s: %s" name
        (String.concat "; " checked.Workload.problems);
      check (traced.Workload.problems = []) "%s traced: %s" name
        (String.concat "; " traced.Workload.problems);
      check
        (checked.Workload.events = traced.Workload.events
        && checked.Workload.virt = traced.Workload.virt)
        "%s: two runs disagree on the simulated outcome" name;
      (* Every end-to-end metric is reported, and none reads 0. *)
      let s = Runner.sample_of checked host [] in
      let e2e =
        List.map
          (fun (m, v) -> (m, Summary.median v))
          (Runner.e2e_samples ~timed:[ s ] ~references:[ s ])
      in
      List.iter (fun (m, v) -> check (v > 0.0) "%s: %s reads %g" name m v) e2e;
      result_lists ~what:(name ^ " end-to-end")
        (List.map (fun m -> (m.Spec.name, m.Spec.unit_)) Spec.end_to_end)
        (Runner.metrics_json Runner.e2e_unit e2e);
      (* The full ledger, probes included, for the first workload only:
         the probes dominate this test's run time. *)
      if w = Workload.Burst_unicast then begin
        let traced = Runner.sample_of traced host (Layers.of_run traced obs) in
        result_lists ~what:"per-layer"
          (List.map (fun m -> (m.Spec.lname, m.Spec.lunit)) Spec.per_layer)
          (Runner.metrics_json Runner.layer_unit
             (Runner.ledger w ~traced:(42, traced) ~timed:[ (42, s) ] ~lean:[]))
      end)
    Workload.all

let tampered_digest () =
  let o, _ =
    Workload.run ~scale:Workload.Small
      ~golden:(fun _ _ -> "00000000000000000000000000000000")
      Workload.Burst_unicast ~seed:42 ~mode:Workload.Check
  in
  check (o.Workload.problems <> []) "a tampered golden digest passed the check"

(* Synthetic sets: ten reps whose host times the change beats in every
   pair, equal virtual metrics. *)
let compare_rules () =
  let set ?(failed = 0) ?(drop = "") ~run_s () =
    { Runner.name = "guest_io";
      attempted = 10 + failed;
      failed;
      notes = [];
      samples =
        List.filter_map
          (fun m ->
            let v =
              match m.Spec.name with
              | "run_s" -> List.init 10 (fun i -> run_s +. (0.01 *. float_of_int i))
              | _ -> List.init 10 (fun _ -> 1.0)
            in
            if m.Spec.name = drop then None else Some (m.Spec.name, v))
          Spec.end_to_end;
      layers = [ ("engine.events", 1.0) ] }
  in
  let json ?pairing s = Runner.set_json ?pairing ~seed:42 ~reps:10 [ s ] in
  let verdict ?pairing change =
    let _, rows, problems =
      Compare.judge_sets ~parent:(json ?pairing (set ~run_s:2.0 ())) ~change:(json ?pairing change)
    in
    ( List.find_map
        (fun r -> if r.Compare.metric.Spec.name = "run_s" then Some r.Compare.verdict else None)
        rows,
      problems )
  in
  check
    (verdict ~pairing:"p" (set ~run_s:1.0 ()) = (Some Compare.Improved, []))
    "compare: alternating pairs that all win are not an improvement";
  check
    (fst (verdict (set ~run_s:1.0 ())) = Some Compare.Same)
    "compare: sets run apart in time were judged improved";
  check
    (fst (verdict (set ~run_s:3.0 ())) = Some Compare.Worse)
    "compare: a 50%% slower median was not judged worse";
  check (snd (verdict (set ~failed:1 ~run_s:2.0 ())) <> []) "compare: passed a change with failed reps";
  check (snd (verdict (set ~drop:"ttdv_p50_s" ~run_s:2.0 ())) <> []) "compare: passed a change lacking a metric"

let () =
  spec ();
  workloads ();
  tampered_digest ();
  compare_rules ();
  if !failures > 0 then exit 1;
  print_endline "benchmark smoke test: ok"
