let section title =
  Printf.printf "\n=== %s ===\n%!" title

let note fmt =
  Format.kasprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

let row ~label ?paper ~units value =
  match paper with
  | Some p when p <> 0.0 ->
    Printf.printf "  %-38s %10.2f %-8s (paper: %8.2f, %+.1f%%)\n%!" label value
      units p
      ((value -. p) /. p *. 100.0)
  | Some p ->
    Printf.printf "  %-38s %10.2f %-8s (paper: %8.2f)\n%!" label value units p
  | None -> Printf.printf "  %-38s %10.2f %-8s\n%!" label value units

let series_header cols =
  Printf.printf "  %-22s" "";
  List.iter (fun c -> Printf.printf " %12s" c) cols;
  Printf.printf "\n%!"

let series_row label values =
  Printf.printf "  %-22s" label;
  List.iter (fun v -> Printf.printf " %12.2f" v) values;
  Printf.printf "\n%!"
