(* [benchmark compare PARENT.json CHANGE.json]: two benchmark sets of
   the same settings, one per commit, judged metric by metric and
   workload by workload.

   - A host metric improved only when the two sets ran as alternating
     pairs ([benchmark --parent]), there are at least ten pairs, the
     change wins at least nine tenths of them (ties count for neither)
     and the medians differ by more than the parent's quartile spread.
     Sets run apart in time never show a gain: the host's speed drifts
     between them.
   - It got worse when its median lost more than the metric's bound.
   - It is unresolved when either side's spread exceeds the bound,
     unless every change rep beats every parent rep.
   - Virtual metrics are deterministic: any difference is reported.

   The change also fails the comparison when it is not correct, fails
   more reps than the parent, lacks a workload or metric the parent has,
   or ran with other settings. *)

type verdict = Improved | Same | Worse | Unresolved | Changed

let verdict_string = function
  | Improved -> "improved"
  | Same -> "same"
  | Worse -> "WORSE"
  | Unresolved -> "unresolved"
  | Changed -> "CHANGED"

type row = {
  workload : string;
  metric : Spec.metric;
  parent : Summary.t;
  change : Summary.t;
  wins : int;
  pairs : int;
  verdict : verdict;
}

let min_pairs = 10

(* [a] is better than [b] in the metric's direction. *)
let better m a b = match m.Spec.better with Spec.Lower -> a < b | Spec.Higher -> a > b

let judge ~paired m ~parent ~change =
  let p = Summary.of_list parent and c = Summary.of_list change in
  let pairs = if paired then min (List.length parent) (List.length change) else 0 in
  let take n l = List.filteri (fun i _ -> i < n) l in
  let wins =
    List.fold_left2
      (fun acc pv cv -> if better m cv pv then acc + 1 else acc)
      0 (take pairs parent) (take pairs change)
  in
  let verdict =
    match m.Spec.kind with
    | Spec.Virtual ->
      let distinct l = List.sort_uniq Float.compare l in
      if distinct parent = distinct change then Same else Changed
    | Spec.Host ->
      let loss =
        match m.Spec.better with
        | Spec.Lower -> (c.Summary.median -. p.Summary.median) /. p.Summary.median
        | Spec.Higher -> (p.Summary.median -. c.Summary.median) /. p.Summary.median
      in
      let all_better =
        List.for_all (fun cv -> List.for_all (fun pv -> better m cv pv) parent) change
      in
      if
        pairs >= min_pairs
        && float_of_int wins >= 0.9 *. float_of_int pairs
        && better m c.Summary.median p.Summary.median
        && Float.abs (c.Summary.median -. p.Summary.median)
           > p.Summary.q3 -. p.Summary.q1
      then Improved
      else if loss > m.Spec.bound then Worse
      else if
        (Summary.spread p > m.Spec.bound || Summary.spread c > m.Spec.bound)
        && not all_better
      then Unresolved
      else Same
  in
  { workload = ""; metric = m; parent = p; change = c; wins; pairs; verdict }

type side = {
  correct : bool;
  failed : int;
  samples : (string * float list) list;
}

let workloads_of set =
  List.map
    (fun w ->
      ( Json.to_str (Json.member "name" w),
        { correct = Json.member "correct" w = Json.Bool true;
          failed = int_of_float (Json.to_float (Json.member "failed" w));
          samples =
            List.map
              (fun (name, m) ->
                (name, List.map Json.to_float (Json.to_list (Json.member "samples" m))))
              (Json.to_assoc (Json.member "end_to_end" w)) } ))
    (Json.to_list (Json.member "workloads" set))

let pairing set =
  match List.assoc_opt "pairing" (Json.to_assoc set) with
  | Some (Json.Str p) -> Some p
  | _ -> None

(* The rows, and every reason the change cannot pass whatever the rows
   say. *)
let judge_sets ~parent ~change =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := !problems @ [ s ]) fmt in
  List.iter
    (fun k ->
      if Json.member k parent <> Json.member k change then
        problem "the sets ran with different %s" k)
    [ "seed"; "reps" ];
  let paired = pairing parent <> None && pairing parent = pairing change in
  let c = workloads_of change in
  let rows =
    List.concat_map
      (fun (workload, ps) ->
        match List.assoc_opt workload c with
        | None ->
          problem "%s: missing from the change's set" workload;
          []
        | Some cs ->
          if not cs.correct then problem "%s: the change's set is not correct" workload;
          if cs.failed > ps.failed then
            problem "%s: the change failed %d reps, the parent %d" workload cs.failed
              ps.failed;
          List.filter_map
            (fun metric ->
              let name = metric.Spec.name in
              match (List.assoc_opt name ps.samples, List.assoc_opt name cs.samples) with
              | Some (_ :: _ as parent), Some (_ :: _ as change) ->
                Some { (judge ~paired metric ~parent ~change) with workload }
              | _, (None | Some []) ->
                problem "%s: %s missing from the change's set" workload name;
                None
              | (None | Some []), _ ->
                problem "%s: %s missing from the parent's set" workload name;
                None)
            Spec.end_to_end)
      (workloads_of parent)
  in
  (paired, rows, !problems)

(* Prints one row per workload and metric, then every problem; returns
   the exit code: non-zero when a metric got worse, a virtual metric
   moved, or there is a problem. *)
let report ~parent ~change =
  let paired, rows, problems = judge_sets ~parent ~change in
  if not paired then
    print_endline
      "note: the sets did not run as alternating pairs (benchmark --parent), \
       so no metric can be judged improved";
  Printf.printf "%-15s %-22s %-6s %27s %27s %7s  %s\n" "workload" "metric" "unit"
    "parent median [q1, q3]" "change median [q1, q3]" "wins" "verdict";
  List.iter
    (fun r ->
      let q s =
        Printf.sprintf "%.6g [%.4g, %.4g]" s.Summary.median s.Summary.q1 s.Summary.q3
      in
      Printf.printf "%-15s %-22s %-6s %27s %27s %7s  %s\n" r.workload r.metric.Spec.name
        r.metric.Spec.unit_ (q r.parent) (q r.change)
        (if paired then Printf.sprintf "%d/%d" r.wins r.pairs else "-")
        (verdict_string r.verdict))
    rows;
  List.iter (Printf.printf "problem: %s\n") problems;
  if problems <> [] || List.exists (fun r -> r.verdict = Worse || r.verdict = Changed) rows
  then 1
  else 0

let read path = Json.of_string (In_channel.with_open_bin path In_channel.input_all)

let main parent_path change_path =
  report ~parent:(read parent_path) ~change:(read change_path)
