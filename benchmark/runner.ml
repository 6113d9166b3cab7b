(* Reps, one process each, and the runs and sets built from them.

   Every rep runs in a fresh process that re-executes a benchmark
   executable ([rep] subcommand), so heap peaks and GC state never leak
   from one rep into the next. Reps run one at a time: the simulator is
   single-threaded and a second simulation would share the box's two
   cores with the one being timed. *)

type sample = {
  events : int;
  virt : (string * float) list;
  setup_s : float;  (** at the reference speed, as [run_s] *)
  run_s : float;
  speed : float;  (** the host's mean speed during the rep *)
  alloc_words : float;
  top_heap_words : int;
  problems : string list;
  layers : (string * float) list;  (** traced reps only *)
}

let sample_of (o : Workload.outcome) (h : Workload.host) layers =
  { events = o.Workload.events;
    virt = o.Workload.virt;
    setup_s = h.Workload.setup_s;
    run_s = h.Workload.run_s;
    speed = h.Workload.speed;
    alloc_words = h.Workload.alloc_words;
    top_heap_words = h.Workload.top_heap_words;
    problems = o.Workload.problems;
    layers }

let assoc_json l = Json.Obj (List.map (fun (k, v) -> (k, Json.Num v)) l)

let assoc_of_json j =
  List.map (fun (k, v) -> (k, Json.to_float v)) (Json.to_assoc j)

let sample_to_json s =
  Json.Obj
    [ ("events", Json.Num (float_of_int s.events));
      ("virtual", assoc_json s.virt);
      ("setup_s", Json.Num s.setup_s);
      ("run_s", Json.Num s.run_s);
      ("speed", Json.Num s.speed);
      ("alloc_words", Json.Num s.alloc_words);
      ("top_heap_words", Json.Num (float_of_int s.top_heap_words));
      ("problems", Json.Arr (List.map (fun p -> Json.Str p) s.problems));
      ("layers", assoc_json s.layers) ]

let sample_of_json j =
  let num k = Json.to_float (Json.member k j) in
  { events = int_of_float (num "events");
    virt = assoc_of_json (Json.member "virtual" j);
    setup_s = num "setup_s";
    run_s = num "run_s";
    speed = num "speed";
    alloc_words = num "alloc_words";
    top_heap_words = int_of_float (num "top_heap_words");
    problems = List.map Json.to_str (Json.to_list (Json.member "problems" j));
    layers = assoc_of_json (Json.member "layers" j) }

(* The host end-to-end metrics of one timed rep. *)
let host_metrics s =
  let events = float_of_int s.events in
  [ ("setup_s", s.setup_s);
    ("run_s", s.run_s);
    ("events_per_s", events /. s.run_s);
    ("alloc_words_per_event", s.alloc_words /. events);
    ("peak_heap_mb", float_of_int s.top_heap_words *. 8.0 /. 1e6) ]

(* A rep reproduces the reference when its simulated outcome is
   bit-identical. Lean reps run without the sampler's daemon events, so
   only their virtual metrics are compared. *)
let reproduces ~reference ~mode s =
  (mode = Workload.Lean || s.events = reference.events) && s.virt = reference.virt

(* --- the child side --- *)

let write_file path contents =
  Out_channel.with_open_bin path (fun oc -> output_string oc contents)

(* One rep in this process; prints its sample as the last stdout line.
   In [Traced] mode the trace, metrics and allocation profile can be
   kept in [trace_dir]. *)
let child w ~seed ~mode ~trace_dir =
  let obs =
    match mode with Workload.Traced -> Some (Workload.make_obs ()) | _ -> None
  in
  let o, h = Workload.run ?obs w ~seed ~mode in
  let layers, problems =
    match obs with
    | None -> ([], [])
    | Some obs ->
      let dropped = Bmcast_obs.Trace.dropped obs.Workload.trace in
      (match trace_dir with
      | Some dir ->
        let file ext = Filename.concat dir (Workload.name w ^ ext) in
        Bmcast_obs.Trace.write_chrome obs.Workload.trace (file ".trace.json");
        Bmcast_obs.Metrics.write obs.Workload.metrics (file ".metrics.json");
        write_file (file ".profile.json")
          (Bmcast_obs.Profile.to_json obs.Workload.profile)
      | None -> ());
      ( Layers.of_run o obs,
        if dropped = 0 then []
        else [ Printf.sprintf "the trace ring dropped %d events" dropped ] )
  in
  let s = sample_of o h layers in
  print_endline
    (Json.to_string
       (sample_to_json { s with problems = s.problems @ problems }))

(* --- the parent side --- *)

let now_s = Workload.now_s

(* The rep being waited for. A parent told to stop takes it down first,
   so no rep outlives the run that started it. *)
let running = ref None

let stop_reps_on_signal () =
  let stop signal =
    Option.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid : int * Unix.process_status))
      !running;
    exit (128 + if signal = Sys.sigint then 2 else 15)
  in
  List.iter
    (fun s -> Sys.set_signal s (Sys.Signal_handle stop))
    [ Sys.sigterm; Sys.sigint ]

(* Run one rep of [exe] in a child process and wait for it. *)
let spawn ~exe ?trace_dir w ~seed ~mode =
  let args =
    [ exe; "rep"; "--workload"; Workload.name w; "--seed"; string_of_int seed;
      "--mode"; Workload.mode_name mode ]
    @ match trace_dir with Some d -> [ "--trace-dir"; d ] | None -> []
  in
  let rd, wr = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list args) Unix.stdin wr Unix.stderr
  in
  running := Some pid;
  Unix.close wr;
  let out = In_channel.input_all (Unix.in_channel_of_descr rd) in
  Unix.close rd;
  let _, status = Unix.waitpid [] pid in
  running := None;
  let last_line =
    match List.rev (String.split_on_char '\n' (String.trim out)) with
    | l :: _ -> l
    | [] -> ""
  in
  match status with
  | Unix.WEXITED 0 -> (
    try Ok (sample_of_json (Json.of_string last_line))
    with Json.Parse_error e -> Error ("unreadable rep output: " ^ e))
  | Unix.WEXITED c -> Error (Printf.sprintf "rep exited with code %d" c)
  | Unix.WSIGNALED n | Unix.WSTOPPED n ->
    Error (Printf.sprintf "rep killed by signal %d" n)

let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* Every rep of one workload by one executable. The first sound rep at
   a seed is that seed's reference, and every later rep at the seed must
   reproduce it. A rep that raised, failed a check or did not reproduce
   its reference counts as failed and adds no sample; failed reps are
   counted, never dropped silently. *)
type book = {
  exe : string;
  workload : Workload.t;
  mutable attempted : int;
  mutable failed : int;
  mutable notes : string list;
  references : (int, sample) Hashtbl.t;
  mutable timed : (int * sample) list;  (** (seed, sample), in run order *)
  mutable lean : (int * sample) list;
  mutable traced : (int * sample) option;
}

let book ?(exe = Sys.executable_name) workload =
  { exe;
    workload;
    attempted = 0;
    failed = 0;
    notes = [];
    references = Hashtbl.create 8;
    timed = [];
    lean = [];
    traced = None }

(* Runs one rep and books it. *)
let rep b ?trace_dir ~seed mode =
  let w = b.workload in
  let r = spawn ~exe:b.exe ?trace_dir w ~seed ~mode in
  let reference = Hashtbl.find_opt b.references seed in
  let checked =
    match (r, reference) with
    | Error e, _ -> Error e
    | Ok s, _ when s.problems <> [] -> Error (String.concat "; " s.problems)
    | Ok s, Some reference when not (reproduces ~reference ~mode s) ->
      Error "did not reproduce the reference rep's simulated outcome"
    | Ok s, _ -> Ok s
  in
  let label =
    Printf.sprintf "%-15s %-6s seed %d" (Workload.name w) (Workload.mode_name mode)
      seed
  in
  b.attempted <- b.attempted + 1;
  match checked with
  | Error f ->
    log "%s: FAILED: %s" label f;
    b.failed <- b.failed + 1;
    b.notes <- b.notes @ [ Printf.sprintf "%s: %s" label f ]
  | Ok s -> (
    log "%s: setup %.6f s, run %.3f s at reference speed (host speed %.3f), %d events"
      label s.setup_s s.run_s s.speed s.events;
    if reference = None && mode <> Workload.Lean then
      Hashtbl.replace b.references seed s;
    match mode with
    | Workload.Timed -> b.timed <- b.timed @ [ (seed, s) ]
    | Workload.Lean -> b.lean <- b.lean @ [ (seed, s) ]
    | Workload.Traced -> b.traced <- Some (seed, s)
    | Workload.Check -> ())

(* Reps keep coming until [seconds] have passed (at least one per seed
   of the run, and never starting one the remaining time cannot hold).
   [f i] runs the [i]th. *)
let timed_loop ~seconds f =
  let start = now_s () in
  let rec go i last =
    let elapsed = now_s () -. start in
    if i >= Workload.seeds_per_run && elapsed +. last > seconds then ()
    else begin
      let t0 = now_s () in
      f i;
      go (i + 1) (now_s () -. t0)
    end
  in
  go 0 0.0

(* Probe shapes from the workload's own size and the traced run's
   deepest scheduler queue. *)
let probe_shape w (traced : sample) =
  let image_sectors, fanout =
    match Workload.fleet_shape Workload.Full w with
    | Some s -> (s.Workload.image_mb * 2048, s.Workload.machines)
    | None -> (Workload.guest_image_gb Workload.Full * 1024 * 1024 * 2, 1)
  in
  { Probes.pending =
      int_of_float
        (Option.value ~default:1.0 (List.assoc_opt "engine.pending_max" traced.layers));
    fanout;
    image_sectors }

(* Only [burst_unicast] pays for lean reps: it is the workload with the
   most clients, where observing costs the most. *)
let has_lean w = w = Workload.Burst_unicast

let pct_over a b = if b = 0.0 then 0.0 else ((a /. b) -. 1.0) *. 100.0

let run_s_at timed seed =
  Summary.median
    (List.filter_map (fun (s', x) -> if s' = seed then Some x.run_s else None) timed)

(* The whole per-layer ledger: the traced child's measurements, the
   overhead of observing and the isolated probes. Both overheads compare
   reps of the same seed, so they compare the same simulated work: the
   traced rep against the timed reps, and each lean rep against the
   timed reps (default telemetry). *)
let ledger w ~traced:(traced_seed, traced) ~timed ~lean =
  let overheads =
    [ ("obs.trace_overhead_pct", pct_over traced.run_s (run_s_at timed traced_seed));
      ( "obs.overhead_pct",
        match lean with
        | [] -> 0.0
        | l ->
          Summary.median
            (List.map (fun (seed, s) -> pct_over (run_s_at timed seed) s.run_s) l) ) ]
  in
  let values = traced.layers @ overheads @ Probes.run (probe_shape w traced) in
  List.map
    (fun m ->
      match List.assoc_opt m.Spec.lname values with
      | Some v -> (m.Spec.lname, v)
      | None -> failwith ("per-layer metric never measured: " ^ m.Spec.lname))
    Spec.per_layer

(* What one book adds up to. *)
type summary = {
  name : string;
  attempted : int;
  failed : int;
  notes : string list;
  samples : (string * float list) list;
      (** every end-to-end metric's values in [Spec] order: host metrics
          one per timed rep, virtual metrics one per seed *)
  layers : (string * float) list;  (** [] unless a traced rep succeeded *)
}

(* Host metrics from the [timed] reps, virtual metrics from the
   references, one per seed. *)
let e2e_samples ~timed ~references =
  List.map
    (fun m ->
      ( m.Spec.name,
        match m.Spec.kind with
        | Spec.Host -> List.map (fun s -> List.assoc m.Spec.name (host_metrics s)) timed
        | Spec.Virtual -> List.map (fun s -> List.assoc m.Spec.name s.virt) references ))
    Spec.end_to_end

let finish ~traced (b : book) =
  let references =
    Hashtbl.fold (fun seed s acc -> (seed, s) :: acc) b.references []
    |> List.sort (fun (a, _) (b, _) -> compare a b)
    |> List.map snd
  in
  let samples = e2e_samples ~timed:(List.map snd b.timed) ~references in
  let layers =
    match (traced, b.traced, b.timed) with
    | true, Some t, _ :: _ -> ledger b.workload ~traced:t ~timed:b.timed ~lean:b.lean
    | _ -> []
  in
  List.iter (log "failure: %s") b.notes;
  { name = Workload.name b.workload;
    attempted = b.attempted;
    failed = b.failed;
    notes = b.notes;
    samples;
    layers }

(* Sound when nothing failed and every metric asked for was measured. *)
let correct ~traced s =
  s.failed = 0
  && List.for_all (fun (_, v) -> v <> []) s.samples
  && ((not traced) || s.layers <> [])

let metrics_json units values =
  Json.Obj
    (List.map
       (fun (name, v) ->
         (name, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str (units name)) ]))
       values)

let e2e_unit name = (Spec.find_metric name).Spec.unit_

let layer_unit name =
  (List.find (fun m -> m.Spec.lname = name) Spec.per_layer).Spec.lunit

(* The end-to-end values a run reports: the median of each metric's
   samples. *)
let end_to_end s = List.map (fun (name, v) -> (name, Summary.median v)) s.samples

(* One run of one workload ([main.exe run], through [run.py]): the
   unit a harness comparing commits repeats over seeds. A checked
   reference rep comes first. [--trace 0] then times reps and reports
   the end-to-end metrics; [--trace 1] runs the traced rep, then timed
   (and lean) reps to measure what observing costs, then the probes, and
   reports the per-layer ledger. *)
let drive w ~seed ~seconds ~traced =
  stop_reps_on_signal ();
  let b = book w in
  let seed_of = Workload.rep_seed ~seed in
  rep b ~seed:(seed_of 0) Workload.Check;
  if traced then rep b ~seed:(seed_of 0) Workload.Traced;
  (* Timed reps start at the run's second seed, so the first
     [seeds_per_run] of them cover every seed once. *)
  timed_loop ~seconds (fun i ->
      let seed = seed_of (i + 1) in
      rep b ~seed Workload.Timed;
      if traced && has_lean w then rep b ~seed Workload.Lean);
  let s = finish ~traced b in
  let correct = correct ~traced s in
  let metrics =
    if not correct then Json.Obj []
    else if traced then metrics_json layer_unit s.layers
    else metrics_json e2e_unit (end_to_end s)
  in
  ( Json.Obj
      [ ("correct", Json.Bool correct);
        ("attempted", Json.Num (float_of_int s.attempted));
        ("failed", Json.Num (float_of_int s.failed));
        ("metrics", metrics) ],
    correct )

(* --- a benchmark set: every workload, [reps] timed reps each --- *)

(* Each workload gets a checked reference rep, then timed reps go
   round-robin across the workloads, so a slow stretch of the host
   spreads over all of them, then each gets its traced rep. Rep [i] of
   every workload uses seed [Workload.rep_seed ~seed i].

   With [parent], every rep is run by the parent executable and by this
   one in turn, alternating which goes first, so rep [i] of the two sets
   is a pair run back to back on the same seed. Only the change's traced
   reps keep their files in [trace_dir]. *)
let run_set ?parent ~workloads ~reps ~seed ~trace_dir () =
  stop_reps_on_signal ();
  let sides w =
    let change = book w in
    match parent with None -> [ change ] | Some exe -> [ book ~exe w; change ]
  in
  let books = List.map sides workloads in
  let seed_of = Workload.rep_seed ~seed in
  List.iter (List.iter (fun b -> rep b ~seed:(seed_of 0) Workload.Check)) books;
  for i = 0 to reps - 1 do
    List.iter
      (fun bs ->
        List.iter
          (fun b ->
            rep b ~seed:(seed_of i) Workload.Timed;
            if has_lean b.workload then rep b ~seed:(seed_of i) Workload.Lean)
          (if i mod 2 = 0 then bs else List.rev bs))
      books
  done;
  List.iter
    (List.iter (fun b ->
         let trace_dir = if b.exe = Sys.executable_name then trace_dir else None in
         rep b ?trace_dir ~seed:(seed_of 0) Workload.Traced))
    books;
  let side pick = List.map (fun bs -> finish ~traced:true (pick bs)) books in
  let last bs = List.nth bs (List.length bs - 1) in
  (side last, Option.map (fun _ -> side List.hd) parent)

let set_correct = correct ~traced:true

(* [pairing] names the alternating run both sets of a pair came from;
   [compare] judges gains only between sets that share it. *)
let set_json ?pairing ~seed ~reps sets =
  let workload s =
    let golden =
      match Workload.of_name s.name with
      | Some w when Workload.fleet_shape Workload.Full w <> None ->
        [ ("golden_digest", Json.Str (Workload.golden_digest Workload.Full w)) ]
      | _ -> []
    in
    Json.Obj
      ([ ("name", Json.Str s.name);
         ("correct", Json.Bool (set_correct s));
         ("attempted", Json.Num (float_of_int s.attempted));
         ("failed", Json.Num (float_of_int s.failed));
         ("failures", Json.Arr (List.map (fun n -> Json.Str n) s.notes)) ]
      @ golden
      @ [ ( "end_to_end",
            Json.Obj
              (List.map
                 (fun (name, values) ->
                   let m = Spec.find_metric name in
                   let q = Summary.of_list values in
                   ( name,
                     Json.Obj
                       [ ("unit", Json.Str m.Spec.unit_);
                         ("kind", Json.Str (Spec.kind_string m.Spec.kind));
                         ("better", Json.Str (Spec.better_string m.Spec.better));
                         ("bound", Json.Num m.Spec.bound);
                         ("n", Json.Num (float_of_int q.Summary.n));
                         ("median", Json.Num q.Summary.median);
                         ("q1", Json.Num q.Summary.q1);
                         ("q3", Json.Num q.Summary.q3);
                         ("samples", Json.Arr (List.map (fun v -> Json.Num v) values))
                       ] ))
                 s.samples) );
          ("per_layer", metrics_json layer_unit s.layers) ])
  in
  Json.Obj
    [ ("seed", Json.Num (float_of_int seed));
      ("reps", Json.Num (float_of_int reps));
      ("pairing", match pairing with Some p -> Json.Str p | None -> Json.Null);
      ("workloads", Json.Arr (List.map workload sets)) ]

let print_set sets =
  List.iter
    (fun s ->
      Printf.printf "\n== %s  (%s; %d reps attempted, %d failed)\n" s.name
        (if set_correct s then "correct" else "INCORRECT")
        s.attempted s.failed;
      List.iter (Printf.printf "   failure: %s\n") s.notes;
      Printf.printf "   %-22s %-6s %-7s %3s %14s %14s %14s %6s\n" "end-to-end" "unit"
        "kind" "n" "median" "q1" "q3" "bound";
      List.iter
        (fun (name, values) ->
          let m = Spec.find_metric name and q = Summary.of_list values in
          Printf.printf "   %-22s %-6s %-7s %3d %14.6g %14.6g %14.6g %5.0f%%\n" name
            m.Spec.unit_ (Spec.kind_string m.Spec.kind) q.Summary.n q.Summary.median
            q.Summary.q1 q.Summary.q3 (100.0 *. m.Spec.bound))
        s.samples;
      Printf.printf "   %-32s %-6s %14s  %s\n" "per-layer (traced rep)" "unit" "value"
        "should move";
      List.iter
        (fun (name, v) ->
          let m = List.find (fun m -> m.Spec.lname = name) Spec.per_layer in
          Printf.printf "   %-32s %-6s %14.6g  %s\n" name m.Spec.lunit v m.Spec.moves)
        s.layers)
    sets
