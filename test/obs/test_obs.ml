(* Unit, property, and end-to-end tests for the observability layer:
   the Stats collectors, the deterministic tracer and its Chrome/JSONL
   exports, the metrics registry, and the contract that identical seeds
   produce byte-identical trace files while a disabled tracer leaves
   the simulation's timing untouched. *)

module Stats = Bmcast_obs.Stats
module Trace = Bmcast_obs.Trace
module Metrics = Bmcast_obs.Metrics
module Profile = Bmcast_obs.Profile
module Analytics = Bmcast_obs.Analytics
module Timeseries = Bmcast_obs.Timeseries
module Watchdog = Bmcast_obs.Watchdog
module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Machine = Bmcast_platform.Machine
module Block_io = Bmcast_guest.Block_io
module Params = Bmcast_core.Params
module Vmm = Bmcast_core.Vmm
module Fault = Bmcast_faults.Fault

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_string = Alcotest.(check string)

let expect_invalid_arg what f =
  match f () with
  | _ -> Alcotest.failf "%s: expected Invalid_argument" what
  | exception Invalid_argument _ -> ()

let contains hay needle =
  let nl = String.length needle and hl = String.length hay in
  let rec go i =
    i + nl <= hl && (String.sub hay i nl = needle || go (i + 1))
  in
  go 0

let check_contains what hay needle =
  if not (contains hay needle) then
    Alcotest.failf "%s: %S not found in output" what needle

(* --- Stats: empty-collector contracts --- *)

let test_histogram_empty () =
  let h = Stats.Histogram.create () in
  check_int "count" 0 (Stats.Histogram.count h);
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.Histogram.mean h);
  check_bool "min is +inf" true (Stats.Histogram.min h = infinity);
  check_bool "max is -inf" true (Stats.Histogram.max h = neg_infinity);
  expect_invalid_arg "percentile on empty" (fun () ->
      Stats.Histogram.percentile h 50.0);
  expect_invalid_arg "median on empty" (fun () -> Stats.Histogram.median h);
  Alcotest.(check (option (float 0.0)))
    "percentile_opt" None
    (Stats.Histogram.percentile_opt h 50.0);
  Stats.Histogram.add h 7.0;
  Alcotest.(check (option (float 0.0)))
    "percentile_opt non-empty" (Some 7.0)
    (Stats.Histogram.percentile_opt h 99.0);
  Stats.Histogram.clear h;
  check_int "count after clear" 0 (Stats.Histogram.count h);
  expect_invalid_arg "percentile after clear" (fun () ->
      Stats.Histogram.percentile h 0.0)

let test_percentile_interpolation () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 10.0; 0.0 ];
  (* rank = p/100 * (n-1); p=25 over [0;10] interpolates to 2.5 *)
  Alcotest.(check (float 1e-9)) "p25" 2.5 (Stats.Histogram.percentile h 25.0);
  Alcotest.(check (float 1e-9)) "p0" 0.0 (Stats.Histogram.percentile h 0.0);
  Alcotest.(check (float 1e-9)) "p100" 10.0
    (Stats.Histogram.percentile h 100.0)

let test_percentile_edges () =
  (* Single sample: every percentile is that sample. *)
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 3.25;
  List.iter
    (fun p ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "single sample p%g" p)
        3.25
        (Stats.Histogram.percentile h p))
    [ 0.0; 50.0; 100.0 ];
  (* p=0 / p=100 pin the exact extremes, and out-of-range p clamps. *)
  List.iter (Stats.Histogram.add h) [ -2.0; 7.5 ];
  Alcotest.(check (float 0.0)) "p0 = min" (-2.0)
    (Stats.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 = max" 7.5
    (Stats.Histogram.percentile h 100.0);
  Alcotest.(check (float 0.0)) "p<0 clamps to min" (-2.0)
    (Stats.Histogram.percentile h (-10.0));
  Alcotest.(check (float 0.0)) "p>100 clamps to max" 7.5
    (Stats.Histogram.percentile h 250.0)

(* Past [exact_limit] the collector folds its samples into the
   log-bucketed form: summary moments and the extremes stay exact, the
   interior percentiles pick up the bounded relative error, and [clear]
   returns it to exact mode (including being able to accept samples
   again — the spill frees the sample array). *)
let test_histogram_spill () =
  let h = Stats.Histogram.create ~exact_limit:4 () in
  for i = 1 to 10 do
    Stats.Histogram.add h (float_of_int i)
  done;
  check_bool "spilled" false (Stats.Histogram.is_exact h);
  check_int "count survives spill" 10 (Stats.Histogram.count h);
  Alcotest.(check (float 1e-9)) "mean exact after spill" 5.5
    (Stats.Histogram.mean h);
  Alcotest.(check (float 0.0)) "min exact" 1.0 (Stats.Histogram.min h);
  Alcotest.(check (float 0.0)) "max exact" 10.0 (Stats.Histogram.max h);
  Alcotest.(check (float 0.0)) "p0 exact" 1.0
    (Stats.Histogram.percentile h 0.0);
  Alcotest.(check (float 0.0)) "p100 exact" 10.0
    (Stats.Histogram.percentile h 100.0);
  let p50 = Stats.Histogram.percentile h 50.0 in
  check_bool "p50 within bucket error" true
    (Float.abs (p50 -. 5.5) <= Stats.Bounded.max_relative_error *. 5.5);
  Stats.Histogram.clear h;
  check_bool "exact again after clear" true (Stats.Histogram.is_exact h);
  check_int "empty after clear" 0 (Stats.Histogram.count h);
  Stats.Histogram.add h 2.0;
  Alcotest.(check (float 0.0)) "accepts samples after clear" 2.0
    (Stats.Histogram.percentile h 50.0);
  expect_invalid_arg "exact_limit 0" (fun () ->
      Stats.Histogram.create ~exact_limit:0 ())

(* Bucketed percentiles vs ground truth: for positive in-range samples
   every percentile of the spilled histogram is within
   [Bounded.max_relative_error] of the exact histogram's answer (both
   interpolate with the same rank convention, and each order statistic's
   representative carries at most that relative error). *)
let prop_bucketed_percentile_error =
  QCheck.Test.make ~count:400
    ~name:"bucketed percentile within 1% of exact"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 120) (float_range 1e-3 1e6))
        (int_range 0 100))
    (fun (xs, p) ->
      let exact = Stats.Histogram.create () in
      let spilled = Stats.Histogram.create ~exact_limit:1 () in
      List.iter
        (fun x ->
          Stats.Histogram.add exact x;
          Stats.Histogram.add spilled x)
        xs;
      (List.length xs < 2 || not (Stats.Histogram.is_exact spilled))
      &&
      let p = float_of_int p in
      let want = Stats.Histogram.percentile exact p in
      let got = Stats.Histogram.percentile spilled p in
      Float.abs (got -. want)
      <= (Stats.Bounded.max_relative_error *. want) +. 1e-12)

let prop_percentile_bounds =
  QCheck.Test.make ~count:500
    ~name:"percentile stays within [min,max] and is monotone in p"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 1 40) (float_range (-1e6) 1e6))
        (pair (int_range 0 100) (int_range 0 100)))
    (fun (xs, (a, b)) ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) xs;
      let lo = List.fold_left Stdlib.min infinity xs in
      let hi = List.fold_left Stdlib.max neg_infinity xs in
      let p, q = if a <= b then (a, b) else (b, a) in
      let vp = Stats.Histogram.percentile h (float_of_int p) in
      let vq = Stats.Histogram.percentile h (float_of_int q) in
      Stats.Histogram.percentile h 0.0 = lo
      && Stats.Histogram.percentile h 100.0 = hi
      && vp >= lo && vq <= hi && vp <= vq)

let test_per_window_zero_fills_gaps () =
  let r = Stats.Rate.create () in
  Alcotest.(check (list (pair int (float 0.0))))
    "empty rate" []
    (Stats.Rate.per_window r ~width:1000);
  Stats.Rate.add r 500 4.0;
  Stats.Rate.add r 3_200 8.0;
  (* 1000 ns windows = 1e-6 s, so rate = weight * 1e6; the two empty
     windows in between are present with rate 0. *)
  Alcotest.(check (list (pair int (float 1e-3))))
    "windows"
    [ (0, 4e6); (1000, 0.0); (2000, 0.0); (3000, 8e6) ]
    (Stats.Rate.per_window r ~width:1000);
  Alcotest.(check (float 1e-9)) "total" 12.0 (Stats.Rate.total r);
  check_int "events" 2 (Stats.Rate.count r);
  expect_invalid_arg "width -1" (fun () -> Stats.Rate.per_window r ~width:(-1))

(* Windows are half-open [k*width, (k+1)*width): a sample exactly on a
   boundary opens the next window, and negative timestamps land in
   floor-division windows (no double-width bucket straddling zero). *)
let test_window_boundaries () =
  let r = Stats.Rate.create () in
  Stats.Rate.add r 999 1.0;
  Stats.Rate.add r 1000 2.0;
  Alcotest.(check (list (pair int (float 1e-3))))
    "boundary sample opens the next window"
    [ (0, 1e6); (1000, 2e6) ]
    (Stats.Rate.per_window r ~width:1000);
  let neg = Stats.Rate.create () in
  Stats.Rate.add neg (-1) 4.0;
  Stats.Rate.add neg (-1000) 2.0;
  Stats.Rate.add neg 0 6.0;
  Alcotest.(check (list (pair int (float 1e-3))))
    "negative timestamps use floor windows"
    [ (-1000, 6e6); (0, 6e6) ]
    (Stats.Rate.per_window neg ~width:1000);
  let rneg = Stats.Rate.create () in
  Stats.Rate.add rneg (-1) 1.0;
  Alcotest.(check (list (pair int (float 1e-3))))
    "negative-only rate emits its own window"
    [ (-1000, 1e6) ]
    (Stats.Rate.per_window rneg ~width:1000)

(* --- Trace: recording semantics --- *)

let test_null_tracer () =
  check_bool "disabled" false (Trace.enabled Trace.null);
  check_bool "on" false (Trace.on Trace.null ~cat:"sim");
  let r = Trace.span Trace.null ~cat:"sim" "body" (fun () -> 41 + 1) in
  check_int "span runs its body" 42 r;
  Trace.instant Trace.null ~cat:"sim" "i";
  Trace.counter Trace.null ~cat:"sim" "c" 1.0;
  Trace.complete Trace.null ~cat:"sim" "x" ~ts:0;
  check_int "no events recorded" 0 (Trace.event_count Trace.null)

let test_span_nesting_and_timestamps () =
  let t = Trace.create () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  now := 1_000;
  Trace.span t ~cat:"a" "outer" (fun () ->
      now := 2_500;
      Trace.span t ~cat:"a"
        ~args:(fun () -> [ ("k", Trace.Int 3) ])
        "inner"
        (fun () -> now := 3_000));
  check_int "two spans" 2 (Trace.event_count t);
  let chrome = Trace.to_chrome t in
  (* ts/dur are microseconds with a fixed-point ns fraction *)
  check_contains "inner span" chrome
    "\"name\":\"inner\",\"ts\":2.500,\"dur\":0.500,\"args\":{\"k\":3}";
  check_contains "outer span" chrome
    "\"name\":\"outer\",\"ts\":1.000,\"dur\":2.000"

let test_category_filter () =
  let t = Trace.create ~categories:[ "net" ] () in
  check_bool "net on" true (Trace.on t ~cat:"net");
  check_bool "sim off" false (Trace.on t ~cat:"sim");
  Trace.instant t ~cat:"sim" "skipped";
  Trace.instant t ~cat:"net" "kept";
  check_int "only net recorded" 1 (Trace.event_count t)

let test_ring_drops_oldest () =
  let t = Trace.create ~capacity:4 () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  for i = 1 to 6 do
    now := i * 1000;
    Trace.instant t ~cat:"c" (Printf.sprintf "e%d" i)
  done;
  check_int "len capped" 4 (Trace.event_count t);
  check_int "dropped" 2 (Trace.dropped t);
  let lines = String.split_on_char '\n' (String.trim (Trace.to_jsonl t)) in
  check_int "four lines" 4 (List.length lines);
  check_contains "oldest survivor first" (List.hd lines) "\"name\":\"e3\"";
  check_contains "newest last" (List.nth lines 3) "\"name\":\"e6\"";
  check_bool "e2 evicted" false (contains (Trace.to_jsonl t) "e2")

let test_export_shapes () =
  let t = Trace.create () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  now := 500;
  Trace.counter t ~cat:"sim" "depth" 7.0;
  Trace.instant t ~cat:"sim" ~args:[ ("s", Trace.Str "a\"b\nc") ] "mark";
  let chrome = Trace.to_chrome t in
  check_contains "counter phase" chrome
    "{\"ph\":\"C\",\"pid\":1,\"tid\":0,\"cat\":\"sim\",\"name\":\"depth\",\"ts\":0.500,\"args\":{\"value\":7}}";
  check_contains "instant phase" chrome "\"ph\":\"i\",\"s\":\"t\"";
  check_contains "string escaping" chrome "{\"s\":\"a\\\"b\\nc\"}";
  check_contains "process metadata" chrome
    "{\"ph\":\"M\",\"pid\":1,\"tid\":0,\"name\":\"process_name\",\"args\":{\"name\":\"bmcast\"}}";
  check_contains "track metadata" chrome
    "\"name\":\"thread_name\",\"args\":{\"name\":\"sim\"}"

let test_export_deterministic () =
  let build () =
    let t = Trace.create () in
    let now = ref 0 in
    Trace.set_clock t (fun () -> !now);
    List.iter
      (fun (ts, cat, name) ->
        now := ts;
        Trace.instant t ~cat name)
      [ (1, "b", "x"); (2, "a", "y"); (3, "b", "z") ];
    t
  in
  check_string "chrome stable" (Trace.to_chrome (build ()))
    (Trace.to_chrome (build ()));
  check_string "jsonl stable" (Trace.to_jsonl (build ()))
    (Trace.to_jsonl (build ()))

(* --- Metrics registry --- *)

let test_metrics_handle_reuse () =
  let m = Metrics.create () in
  let c1 = Metrics.counter m ~labels:[ ("disk", "ahci") ] "ops" in
  let c2 = Metrics.counter m ~labels:[ ("disk", "ahci") ] "ops" in
  check_bool "same handle" true (c1 == c2);
  Metrics.incr c1;
  Metrics.incr ~by:2.0 c2;
  Alcotest.(check (float 0.0)) "shared state" 3.0 !c1;
  let other = Metrics.counter m ~labels:[ ("disk", "ide") ] "ops" in
  check_bool "distinct labels, distinct handle" false (c1 == other);
  check_int "two instruments" 2 (Metrics.size m)

let test_metrics_label_order () =
  check_string "labels sorted in key" "x|a=1|b=2"
    (Metrics.key "x" [ ("b", "2"); ("a", "1") ]);
  let m = Metrics.create () in
  let g1 = Metrics.gauge m ~labels:[ ("b", "2"); ("a", "1") ] "g" in
  let g2 = Metrics.gauge m ~labels:[ ("a", "1"); ("b", "2") ] "g" in
  check_bool "order-insensitive registration" true (g1 == g2)

let test_metrics_kind_mismatch () =
  let m = Metrics.create () in
  let (_ : float ref) = Metrics.counter m "x" in
  expect_invalid_arg "re-register as histogram" (fun () ->
      Metrics.histogram m "x")

let test_metrics_null_is_stateless () =
  check_bool "disabled" false (Metrics.enabled Metrics.null);
  let c1 = Metrics.counter Metrics.null "c" in
  Metrics.incr ~by:5.0 c1;
  let c2 = Metrics.counter Metrics.null "c" in
  Alcotest.(check (float 0.0)) "fresh handle each time" 0.0 !c2;
  check_int "nothing registered" 0 (Metrics.size Metrics.null);
  check_string "empty snapshot" "{\n}\n" (Metrics.to_json Metrics.null)

let test_metrics_to_json () =
  let m = Metrics.create () in
  Metrics.incr ~by:2.0 (Metrics.counter m "b_ops");
  Metrics.set (Metrics.gauge m "a_depth") 1.5;
  let h = Metrics.histogram m "lat" in
  List.iter (Stats.Histogram.add h) [ 1.0; 2.0; 3.0 ];
  let (_ : Stats.Histogram.t) = Metrics.histogram m "lat_empty" in
  let r = Metrics.rate m "bytes" in
  Stats.Rate.add r 0 10.0;
  let json = Metrics.to_json m in
  check_string "snapshot is stable" json (Metrics.to_json m);
  check_contains "gauge" json "\"a_depth\": 1.5";
  check_contains "counter" json "\"b_ops\": 2";
  check_contains "histogram" json "\"lat\": {\"count\":3,\"mean\":2,";
  check_contains "empty histogram collapses" json "\"lat_empty\": {\"count\":0}";
  check_contains "rate windows" json
    "\"bytes\": {\"total\":10,\"events\":1,\"windows\":[[0,10]]}";
  (* keys are emitted sorted, not in registration order *)
  let ia = String.index json 'a' in
  check_bool "sorted keys" true
    (ia < String.length json
    && contains (String.sub json 0 (ia + 10)) "a_depth")

(* --- Profile: span-scoped allocation attribution --- *)

let test_profile_null_is_inert () =
  check_bool "disabled" false (Profile.enabled Profile.null);
  Profile.enter Profile.null "x";
  Profile.exit Profile.null "x";
  check_int "span runs its body" 42 (Profile.span Profile.null "x" (fun () -> 42));
  check_int "no mismatches" 0 (Profile.mismatches Profile.null);
  check_bool "no rows" true (Profile.rows Profile.null = [])

let test_profile_attribution () =
  let p = Profile.create () in
  check_bool "enabled" true (Profile.enabled p);
  (* Nested scopes: the inner allocation must not also be charged to
     the outer category (self-attribution). *)
  let sink = ref [] in
  Profile.span p "outer" (fun () ->
      Profile.span p "inner" (fun () ->
          for i = 1 to 1000 do
            sink := [ float_of_int i ]
          done));
  ignore (Sys.opaque_identity !sink);
  check_int "no mismatches" 0 (Profile.mismatches p);
  let row cat =
    match List.find_opt (fun r -> r.Profile.row_cat = cat) (Profile.rows p) with
    | Some r -> r
    | None -> Alcotest.failf "category %s missing from rows" cat
  in
  let inner = row "inner" and outer = row "outer" in
  check_int "inner calls" 1 inner.Profile.calls;
  check_int "outer calls" 1 outer.Profile.calls;
  check_bool "attribution is non-negative" true
    (inner.Profile.minor_words >= 0.0 && outer.Profile.minor_words >= 0.0);
  (* 1000 boxed-float list cells land in the inner scope; the outer
     scope's self cost is only the profiler-adjacent residue. *)
  check_bool "inner dominates" true
    (inner.Profile.minor_words > 1000.0
    && inner.Profile.minor_words > outer.Profile.minor_words);
  check_contains "text report lists inner" (Profile.to_text p) "inner";
  check_contains "json has categories" (Profile.to_json p) "\"categories\"";
  Profile.clear p;
  check_bool "rows cleared" true (Profile.rows p = [])

let test_profile_mismatch_counted () =
  let p = Profile.create () in
  Profile.enter p "a";
  Profile.exit p "b";
  (* no scope of category b anywhere on the stack *)
  check_int "unmatched exit counted" 1 (Profile.mismatches p);
  Profile.exit p "a";
  check_int "balanced exit adds nothing" 1 (Profile.mismatches p);
  (* exit that force-closes an unbalanced scope above it *)
  Profile.enter p "c";
  Profile.enter p "d";
  Profile.exit p "c";
  check_bool "force-close counted" true (Profile.mismatches p >= 2)

(* --- Analytics: synthetic boot pipelines --- *)

(* Two hand-built boots on a clock-driven tracer. Durations in ms:
     fast: queue 1, vmm_init 2, discover 3, copy 4, devirt 0.5  (10.5)
     slow: queue 2, vmm_init 2, discover 1, copy 20, devirt 1   (26)   *)
let synthetic_trace () =
  let t = Trace.create () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  let ms f = int_of_float (f *. 1e6) in
  let boot m stages =
    List.fold_left
      (fun start (stage, dur_ms) ->
        let finish = start + ms dur_ms in
        now := finish;
        Trace.complete t ~cat:"boot" ~args:[ ("m", Trace.Str m) ] stage
          ~ts:start;
        finish)
      0 stages
    |> ignore
  in
  boot "fast"
    [ ("queue", 1.0); ("vmm_init", 2.0); ("discover", 3.0); ("copy", 4.0);
      ("devirt", 0.5) ];
  boot "slow"
    [ ("queue", 2.0); ("vmm_init", 2.0); ("discover", 1.0); ("copy", 20.0);
      ("devirt", 1.0) ];
  (* An op-level span (other category, "m" + "stage" args) must land in
     the per-operation table, not the boot pipeline. *)
  now := ms 1.5;
  Trace.complete t ~cat:"aoe"
    ~args:[ ("m", Trace.Str "fast"); ("stage", Trace.Str "transport") ]
    "aoe-read" ~ts:(ms 0.5);
  t

let test_analytics_pipeline () =
  let a = Analytics.of_trace ~slo_s:0.02 (synthetic_trace ()) in
  check_int "two machines" 2 (Analytics.machine_count a);
  Alcotest.(check (list string))
    "machine names sorted" [ "fast"; "slow" ] (Analytics.machine_names a);
  Alcotest.(check (list (pair string (float 1e-9))))
    "stages in pipeline order"
    [ ("queue", 1.0); ("vmm_init", 2.0); ("discover", 3.0); ("copy", 4.0);
      ("devirt", 0.5) ]
    (Analytics.stage_ms a "fast");
  (* stage-sum = boot-total invariant *)
  List.iter
    (fun m ->
      let sum =
        List.fold_left (fun acc (_, d) -> acc +. d) 0.0 (Analytics.stage_ms a m)
      in
      match Analytics.boot_total_ms a m with
      | Some total -> Alcotest.(check (float 1e-9)) (m ^ " total") sum total
      | None -> Alcotest.failf "machine %s has no boot total" m)
    (Analytics.machine_names a);
  check_bool "unknown machine" true
    (Analytics.stage_ms a "nope" = [] && Analytics.boot_total_ms a "nope" = None);
  (* fleet-wide stage table: every stage saw both boots *)
  let rows = Analytics.stage_rows a in
  Alcotest.(check (list string))
    "table in pipeline order" Analytics.stage_order
    (List.map (fun r -> r.Analytics.stage) rows);
  List.iter
    (fun r -> check_int (r.Analytics.stage ^ " count") 2 r.Analytics.count)
    rows;
  let copy = List.find (fun r -> r.Analytics.stage = "copy") rows in
  Alcotest.(check (float 1e-6)) "copy max" 20.0 copy.Analytics.max_ms;
  Alcotest.(check (float 1e-6)) "copy p50" 12.0 copy.Analytics.p50_ms;
  (* critical path: copy dominates both boots *)
  (match Analytics.critical_path a with
  | ("copy", 2) :: _ -> ()
  | cp ->
    Alcotest.failf "unexpected critical path head: %s"
      (String.concat ","
         (List.map (fun (s, n) -> Printf.sprintf "%s=%d" s n) cp)));
  (* SLO at 20 ms: only "slow" (26 ms) violates, wasting 6 ms *)
  let slo = Analytics.slo a in
  check_int "boots" 2 slo.Analytics.boots;
  check_int "violations" 1 slo.Analytics.violations;
  Alcotest.(check (float 1e-6)) "wasted ms" 6.0 slo.Analytics.wasted_ms;
  (* op table *)
  (match Analytics.op_rows a with
  | [ op ] ->
    check_string "op key" "aoe.aoe-read" op.Analytics.opname;
    check_int "op count" 1 op.Analytics.ocount;
    Alcotest.(check (float 1e-6)) "op total" 1.0 op.Analytics.ototal_ms
  | ops -> Alcotest.failf "expected 1 op row, got %d" (List.length ops));
  (* renders are deterministic and carry the headline numbers *)
  let a2 = Analytics.of_trace ~slo_s:0.02 (synthetic_trace ()) in
  check_string "to_json stable" (Analytics.to_json a) (Analytics.to_json a2);
  check_string "to_text stable" (Analytics.to_text a) (Analytics.to_text a2);
  check_contains "json has slo" (Analytics.to_json a) "\"violations\":1";
  check_contains "text has stage table" (Analytics.to_text a) "copy"

let test_analytics_ignores_untagged () =
  let t = Trace.create () in
  let now = ref 0 in
  Trace.set_clock t (fun () -> !now);
  now := 1_000_000;
  (* boot span without an "m" arg, instants, and foreign spans without
     a "stage" arg must all be ignored *)
  Trace.complete t ~cat:"boot" "queue" ~ts:0;
  Trace.instant t ~cat:"boot" ~args:[ ("m", Trace.Str "x") ] "mark";
  Trace.complete t ~cat:"net" ~args:[ ("m", Trace.Str "x") ] "send" ~ts:0;
  let a = Analytics.of_trace t in
  check_int "nothing folded" 0 (Analytics.machine_count a);
  check_bool "no ops" true (Analytics.op_rows a = []);
  check_int "no boots" 0 (Analytics.slo a).Analytics.boots

(* --- End-to-end: traced deployments on the simulated testbed --- *)

let image_mb = 32
let image_sectors = image_mb * 2048

(* Same single-machine AoE rig as the chaos suite: boot the VMM, touch
   the disk once (forcing a copy-on-read redirect), wait for
   de-virtualization. *)
let run_deploy ?(seed = 42) ?scenario ~trace ~metrics () =
  let sim = Sim.create ~seed ~trace ~metrics () in
  let fabric = Fabric.create sim () in
  let profile =
    { Disk.hdd_constellation2 with Disk.capacity_sectors = 2 * image_sectors }
  in
  let server_disk = Disk.create sim profile in
  Disk.fill_with_image server_disk;
  let vblade = Vblade.create sim ~fabric ~name:"server" ~disk:server_disk () in
  let machine =
    Machine.create sim ~name:"node0" ~disk_profile:profile
      ~disk_kind:Machine.Ahci_disk ~fabric ()
  in
  let params = Params.default ~image_sectors in
  (match scenario with
  | None -> ()
  | Some name ->
    let plan =
      match Fault.scenario ~image_sectors name with
      | Some p -> p
      | None -> Alcotest.failf "unknown scenario %s" name
    in
    let _inj =
      Fault.inject { Fault.sim; fabric; server = vblade; server_disk } plan
    in
    ());
  let vmm_ref = ref None in
  Sim.spawn_at sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot machine ~params ~server_port:(Vblade.port_id vblade) ()
      in
      vmm_ref := Some vmm;
      let blk = Block_io.attach machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm);
  Sim.run ~until:(Time.minutes 30) sim;
  Option.get !vmm_ref

let test_trace_deterministic_chaos () =
  let go () =
    let trace = Trace.create () in
    let vmm =
      run_deploy ~scenario:"crash-mid-copy" ~trace ~metrics:Metrics.null ()
    in
    check_bool "devirtualized" true (Vmm.devirtualized_at vmm <> None);
    Trace.to_chrome trace
  in
  let a = go () and b = go () in
  check_bool "byte-identical chrome export" true (String.equal a b);
  (* acceptance: spans from at least these five subsystems *)
  List.iter
    (fun cat ->
      check_contains "category present" a
        (Printf.sprintf "\"cat\":%S" cat))
    [ "sim"; "net"; "storage"; "mediator"; "faults" ]

let test_disabled_tracer_is_inert () =
  let totals_of trace =
    let vmm = run_deploy ~trace ~metrics:Metrics.null () in
    (Vmm.devirtualized_at vmm, Vmm.totals vmm)
  in
  let null_at, null_totals = totals_of Trace.null in
  let traced = Trace.create () in
  let traced_at, traced_totals = totals_of traced in
  check_bool "same devirtualization time" true (null_at = traced_at);
  check_bool "same totals" true (null_totals = traced_totals);
  check_int "null tracer stays empty" 0 (Trace.event_count Trace.null);
  check_bool "real tracer saw events" true (Trace.event_count traced > 0)

let test_metrics_match_vmm_totals () =
  let run () =
    let metrics = Metrics.create () in
    let vmm = run_deploy ~trace:Trace.null ~metrics () in
    (metrics, Vmm.totals vmm)
  in
  let metrics, totals = run () in
  let h = Metrics.histogram metrics ~labels:[ ("disk", "ahci") ] "redirect_latency_ms" in
  check_int "one histogram sample per redirect" totals.Vmm.redirects
    (Stats.Histogram.count h);
  check_bool "redirects happened" true (totals.Vmm.redirects > 0);
  let r = Metrics.rate metrics "copy.bytes" in
  Alcotest.(check (float 0.0))
    "rate total equals background bytes"
    (float_of_int totals.Vmm.background_bytes)
    (Stats.Rate.total r);
  check_bool "background copy ran" true (totals.Vmm.background_bytes > 0);
  (* the snapshot is itself deterministic for a fixed seed *)
  let metrics2, _ = run () in
  check_string "snapshot deterministic" (Metrics.to_json metrics)
    (Metrics.to_json metrics2)

(* --- Metrics: typed snapshot API (iter / fold / find / derived) --- *)

let test_metrics_typed_snapshot () =
  let m = Metrics.create () in
  let c = Metrics.counter m "a.count" in
  Metrics.incr ~by:3.0 c;
  let g = Metrics.gauge m ~labels:[ ("x", "1") ] "b.gauge" in
  Metrics.set g 2.5;
  let h = Metrics.histogram m "c.hist" in
  Stats.Histogram.add h 1.0;
  Stats.Histogram.add h 2.0;
  let r = Metrics.rate m "d.rate" in
  Stats.Rate.add r 0 5.0;
  let calls = ref 0 in
  Metrics.derived m "e.derived" (fun () ->
      incr calls;
      42.0);
  Alcotest.(check (list string))
    "fold visits sorted keys"
    [ "a.count"; "b.gauge|x=1"; "c.hist"; "d.rate"; "e.derived" ]
    (List.rev (Metrics.fold m (fun k _ acc -> k :: acc) []));
  let scalar_of k =
    match Metrics.find m k with
    | Some v -> Metrics.scalar v
    | None -> Alcotest.failf "key %S not found" k
  in
  Alcotest.(check (float 0.0)) "counter scalar" 3.0 (scalar_of "a.count");
  Alcotest.(check (float 0.0)) "gauge scalar" 2.5 (scalar_of "b.gauge|x=1");
  Alcotest.(check (float 0.0)) "histogram scalar is count" 2.0
    (scalar_of "c.hist");
  Alcotest.(check (float 0.0)) "rate scalar is total" 5.0 (scalar_of "d.rate");
  Alcotest.(check (float 0.0)) "derived scalar" 42.0 (scalar_of "e.derived");
  (* the filter prunes before derived closures run *)
  let before = !calls in
  Metrics.iter ~filter:(fun k -> k = "a.count") m (fun _ _ -> ());
  check_int "filtered-out derived not evaluated" before !calls;
  Metrics.iter m (fun _ _ -> ());
  check_int "unfiltered iter evaluates derived" (before + 1) !calls;
  (* first registration wins; kind mismatch still raises *)
  Metrics.derived m "e.derived" (fun () -> 0.0);
  Alcotest.(check (float 0.0))
    "derived re-registration is a no-op" 42.0 (scalar_of "e.derived");
  expect_invalid_arg "derived over a counter" (fun () ->
      Metrics.derived m "a.count" (fun () -> 0.0));
  (* to_json filter restricts the snapshot *)
  let j = Metrics.to_json ~filter:(String.starts_with ~prefix:"a.") m in
  check_contains "filtered json keeps match" j "\"a.count\"";
  check_bool "filtered json drops rest" false (contains j "b.gauge");
  (* null registry: derived is a no-op and snapshots stay empty *)
  Metrics.derived Metrics.null "z" (fun () -> 1.0);
  check_string "null to_json empty" "{\n}\n" (Metrics.to_json Metrics.null)

(* --- Timeseries: sampling, status, rings, rollups, exports --- *)

let test_timeseries_status_and_raw () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "g" in
  let ts = Timeseries.create ~interval_ns:1000 m in
  check_int "interval" 1000 (Timeseries.interval_ns ts);
  check_int "no sweeps yet" 0 (Timeseries.sweeps ts);
  Alcotest.(check (option reject)) "untracked key" None (Timeseries.status ts "g");
  Metrics.set g 1.0;
  Timeseries.sample ts ~now:1000;
  Timeseries.sample ts ~now:2000;
  Metrics.set g 5.0;
  Timeseries.sample ts ~now:3000;
  check_int "sweeps" 3 (Timeseries.sweeps ts);
  check_int "last sweep time" 3000 (Timeseries.last_sweep_at ts);
  Alcotest.(check (list string)) "keys" [ "g" ] (Timeseries.keys ts);
  (match Timeseries.status ts "g" with
  | None -> Alcotest.fail "status missing"
  | Some st ->
    check_int "count" 3 st.Timeseries.s_count;
    Alcotest.(check (pair int (float 0.0)))
      "last" (3000, 5.0) st.Timeseries.s_last;
    Alcotest.(check (option (pair int (float 0.0))))
      "prev" (Some (2000, 1.0)) st.Timeseries.s_prev;
    check_int "same_run resets on change" 1 st.Timeseries.s_same_run);
  Alcotest.(check (list (pair int (float 0.0))))
    "raw tail" [ (2000, 1.0); (3000, 5.0) ]
    (Timeseries.raw ~n:2 ts "g");
  (* a sweep-time filter hides keys entirely *)
  let ts2 = Timeseries.create ~interval_ns:1000 ~filter:(fun k -> k <> "g") m in
  Timeseries.sample ts2 ~now:1000;
  check_int "filtered sampler tracks nothing" 0 (Timeseries.nkeys ts2);
  expect_invalid_arg "zero interval" (fun () ->
      Timeseries.create ~interval_ns:0 m);
  expect_invalid_arg "tiny capacity" (fun () ->
      Timeseries.create ~capacity:2 m)

let test_timeseries_max_keys () =
  let m = Metrics.create () in
  for i = 0 to 9 do
    Metrics.set (Metrics.gauge m (Printf.sprintf "k%02d" i)) (float_of_int i)
  done;
  let ts = Timeseries.create ~interval_ns:1000 ~max_keys:4 m in
  Timeseries.sample ts ~now:1000;
  check_int "tracked capped" 4 (Timeseries.nkeys ts);
  check_int "overflow counted" 6 (Timeseries.dropped_keys ts);
  Alcotest.(check (list string))
    "first keys in sorted order win"
    [ "k00"; "k01"; "k02"; "k03" ]
    (Timeseries.keys ts)

(* Parse the CSV export back into rows; the header line is pinned
   here so format drift fails loudly. *)
let csv_rows ts =
  let lines = String.split_on_char '\n' (Timeseries.to_csv ts) in
  match lines with
  | meta :: header :: rest ->
    check_bool "metadata line" true (String.starts_with ~prefix:"# bmcast-timeseries v1 " meta);
    check_string "csv header" "key,tier,t_ns,count,min,mean,max" header;
    List.filter_map
      (fun l ->
        if l = "" then None
        else
          match String.split_on_char ',' l with
          | [ key; tier; t; n; lo; mean; hi ] ->
            Some
              ( key,
                int_of_string tier,
                int_of_string t,
                int_of_string n,
                float_of_string lo,
                float_of_string mean,
                float_of_string hi )
          | _ -> Alcotest.failf "bad csv row %S" l)
      rest
  | _ -> Alcotest.fail "csv too short"

let test_timeseries_eviction_and_rollup () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "g" in
  let ts = Timeseries.create ~interval_ns:1000 ~capacity:10 ~tiers:2 m in
  for i = 1 to 105 do
    Metrics.set g (float_of_int i);
    Timeseries.sample ts ~now:(i * 1000)
  done;
  let rows = csv_rows ts in
  let tier0 = List.filter (fun (_, t, _, _, _, _, _) -> t = 0) rows in
  let tier1 = List.filter (fun (_, t, _, _, _, _, _) -> t = 1) rows in
  (* the raw ring wrapped: only the 10 newest samples remain *)
  check_int "raw ring holds capacity" 10 (List.length tier0);
  (match tier0 with
  | (_, _, t, _, _, _, _) :: _ -> check_int "oldest raw sample" 96_000 t
  | [] -> Alcotest.fail "no tier0 rows");
  (* 105 samples = 10 complete x10 buckets (the 5-sample accumulator is
     not exported) *)
  check_int "complete rollup buckets" 10 (List.length tier1);
  List.iter
    (fun (_, _, t, n, lo, mean, hi) ->
      check_int "bucket count" 10 n;
      let first = float_of_int (t / 1000) in
      Alcotest.(check (float 1e-9)) "bucket min" first lo;
      Alcotest.(check (float 1e-9)) "bucket max" (first +. 9.0) hi;
      Alcotest.(check (float 1e-6)) "bucket mean" (first +. 4.5) mean)
    tier1

(* Rollup conservation: every complete tier-1 bucket must agree with
   the 10 raw samples it aggregates on count, min, max and sum. *)
let prop_rollup_conservation =
  QCheck.Test.make ~name:"rollup buckets conserve count/min/mean/max"
    ~count:50
    QCheck.(list_of_size Gen.(int_range 10 150) (int_range (-1000) 1000))
    (fun ints ->
      let values = List.map float_of_int ints in
      let m = Metrics.create () in
      let g = Metrics.gauge m "v" in
      let ts =
        Timeseries.create ~interval_ns:1000
          ~capacity:(max 10 (List.length values))
          ~tiers:2 m
      in
      List.iteri
        (fun i v ->
          Metrics.set g v;
          Timeseries.sample ts ~now:((i + 1) * 1000))
        values;
      let rows = csv_rows ts in
      let tier0 = List.filter (fun (_, t, _, _, _, _, _) -> t = 0) rows in
      let tier1 = List.filter (fun (_, t, _, _, _, _, _) -> t = 1) rows in
      if List.length tier0 <> List.length values then
        QCheck.Test.fail_reportf "raw ring lost samples";
      if List.length tier1 <> List.length values / Timeseries.rollup_factor
      then QCheck.Test.fail_reportf "unexpected rollup bucket count";
      List.iteri
        (fun bi (_, _, bt, n, lo, mean, hi) ->
          let children =
            List.filteri
              (fun i _ ->
                i >= bi * Timeseries.rollup_factor
                && i < (bi + 1) * Timeseries.rollup_factor)
              values
          in
          let cmin = List.fold_left min infinity children in
          let cmax = List.fold_left max neg_infinity children in
          let csum = List.fold_left ( +. ) 0.0 children in
          (match List.nth_opt values (bi * Timeseries.rollup_factor) with
          | Some _ when bt <> (bi * Timeseries.rollup_factor + 1) * 1000 ->
            QCheck.Test.fail_reportf "bucket %d at wrong time %d" bi bt
          | _ -> ());
          if n <> Timeseries.rollup_factor then
            QCheck.Test.fail_reportf "bucket %d count %d" bi n;
          if lo <> cmin || hi <> cmax then
            QCheck.Test.fail_reportf "bucket %d min/max mismatch" bi;
          if Float.abs ((mean *. float_of_int n) -. csum) > 1e-6 *. (1.0 +. Float.abs csum)
          then QCheck.Test.fail_reportf "bucket %d sum not conserved" bi)
        tier1;
      true)

let test_timeseries_exports () =
  let m = Metrics.create () in
  let g = Metrics.gauge m ~labels:[ ("server", "s-1") ] "vblade.up" in
  let c = Metrics.counter m "plain" in
  let ts = Timeseries.create ~interval_ns:1_000_000_000 m in
  Metrics.set g 1.0;
  Metrics.incr ~by:2.0 c;
  Timeseries.sample ts ~now:1_000_000_000;
  Timeseries.sample ts ~now:2_000_000_000;
  let om = Timeseries.to_openmetrics ts in
  check_contains "om type line" om "# TYPE bmcast_plain gauge";
  check_contains "om sample" om "bmcast_plain 2 2.000000000";
  check_contains "om label recovery" om
    {|bmcast_vblade_up{server="s-1"} 1 2.000000000|};
  check_bool "om terminator" true
    (String.ends_with ~suffix:"# EOF\n" om);
  let tj = Timeseries.timeline_json ts in
  check_contains "timeline interval" tj "\"interval_ns\":1000000000";
  check_contains "timeline points" tj "[1000000000,";
  (* same inputs -> byte-identical exports *)
  let again () =
    let m2 = Metrics.create () in
    let g2 = Metrics.gauge m2 ~labels:[ ("server", "s-1") ] "vblade.up" in
    let c2 = Metrics.counter m2 "plain" in
    let ts2 = Timeseries.create ~interval_ns:1_000_000_000 m2 in
    Metrics.set g2 1.0;
    Metrics.incr ~by:2.0 c2;
    Timeseries.sample ts2 ~now:1_000_000_000;
    Timeseries.sample ts2 ~now:2_000_000_000;
    ts2
  in
  let ts2 = again () in
  check_string "csv deterministic" (Timeseries.to_csv ts)
    (Timeseries.to_csv ts2);
  check_string "openmetrics deterministic" om (Timeseries.to_openmetrics ts2)

(* --- Watchdog: rules, episodes, detection latency --- *)

(* Drive a sampler by hand: set the gauge then sweep at 1 ms steps. *)
let drive ts g values =
  List.iteri
    (fun i v ->
      Metrics.set g v;
      Timeseries.sample ts ~now:((i + 1) * 1000))
    values

let test_watchdog_threshold_episodes () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "up" in
  let ts = Timeseries.create ~interval_ns:1000 m in
  let w =
    Watchdog.create
      [ Watchdog.threshold ~hold:2 ~name:"down" ~key:"up" Watchdog.Below 0.5 ]
  in
  Watchdog.attach w ts;
  drive ts g [ 1.0; 1.0; 0.0; 0.0; 0.0; 1.0; 0.0; 0.0 ];
  check_int "one alert per breach episode" 2 (Watchdog.alert_count w);
  (match Watchdog.alerts w with
  | [ a1; a2 ] ->
    check_int "fires when hold completes" 4000 a1.Watchdog.a_at;
    check_int "re-arms after recovery" 8000 a2.Watchdog.a_at;
    check_string "rule name" "down" a1.Watchdog.a_rule
  | _ -> Alcotest.fail "expected exactly two alerts");
  Alcotest.(check (list (pair string string)))
    "still firing at end"
    [ ("down", "up") ]
    (Watchdog.firing w)

let test_watchdog_rate_absent_stale () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "q" in
  let ts = Timeseries.create ~interval_ns:1000 m in
  let w =
    Watchdog.create
      [ Watchdog.rate_of_change ~name:"spike" ~key:"q" Watchdog.Above 1e6;
        Watchdog.absent ~after:2 ~name:"gone" ~key:"nope" ();
        Watchdog.stale ~after:3 ~name:"stuck" ~key:"q" () ]
  in
  Watchdog.attach w ts;
  (* interval 1000 ns = 1e-6 s, so +10 in one step = 1e7/s > 1e6 *)
  drive ts g [ 0.0; 10.0; 10.0; 10.0; 10.0 ];
  let by_rule name =
    List.filter (fun a -> a.Watchdog.a_rule = name) (Watchdog.alerts w)
  in
  (match by_rule "spike" with
  | [ a ] -> check_int "rate alert on second sample" 2000 a.Watchdog.a_at
  | l -> Alcotest.failf "spike alerts: %d" (List.length l));
  (match by_rule "gone" with
  | [ a ] ->
    check_int "absent fires after N sweeps" 2000 a.Watchdog.a_at;
    check_string "absent key is the pattern" "nope" a.Watchdog.a_key
  | l -> Alcotest.failf "gone alerts: %d" (List.length l));
  (match by_rule "stuck" with
  | [ a ] ->
    (* 10,10,10 is the first 3-sample run of equal values *)
    check_int "stale fires after run of equals" 4000 a.Watchdog.a_at
  | l -> Alcotest.failf "stuck alerts: %d" (List.length l))

let test_watchdog_key_matching () =
  let m = Metrics.create () in
  let up = Metrics.gauge m ~labels:[ ("server", "s0") ] "vblade.up" in
  let bytes = Metrics.gauge m ~labels:[ ("server", "s0") ] "vblade.uplink_bytes" in
  let ts = Timeseries.create ~interval_ns:1000 m in
  let w =
    Watchdog.create
      [ Watchdog.threshold ~name:"down" ~key:"vblade.up" Watchdog.Below 0.5 ]
  in
  Watchdog.attach w ts;
  Metrics.set up 0.0;
  Metrics.set bytes 0.0;
  Timeseries.sample ts ~now:1000;
  check_int "only the exact metric name matches" 1 (Watchdog.alert_count w);
  (match Watchdog.alerts w with
  | [ a ] -> check_string "labelled key" "vblade.up|server=s0" a.Watchdog.a_key
  | _ -> Alcotest.fail "expected one alert");
  (* a trailing '.' opts into free prefix matching *)
  let w2 =
    Watchdog.create
      [ Watchdog.threshold ~name:"any" ~key:"vblade." Watchdog.Below 0.5 ]
  in
  let ts2 = Timeseries.create ~interval_ns:1000 m in
  Watchdog.attach w2 ts2;
  Timeseries.sample ts2 ~now:1000;
  check_int "prefix pattern matches both" 2 (Watchdog.alert_count w2)

let test_watchdog_detection_latency () =
  let m = Metrics.create () in
  let g = Metrics.gauge m "up" in
  let ts = Timeseries.create ~interval_ns:1000 m in
  let w =
    Watchdog.create
      [ Watchdog.threshold ~name:"down" ~key:"up" Watchdog.Below 0.5 ]
  in
  Watchdog.attach w ts;
  Metrics.set g 1.0;
  Timeseries.sample ts ~now:1000;
  (* fault lands between sweeps; the next sweep's alert resolves it *)
  Watchdog.expect w ~label:"crash" ~now:1400;
  check_int "expectation armed" 1 (Watchdog.pending_expectations w);
  Metrics.set g 0.0;
  Timeseries.sample ts ~now:2000;
  check_int "expectation resolved" 0 (Watchdog.pending_expectations w);
  (match Watchdog.detections w with
  | [ d ] ->
    check_string "label" "crash" d.Watchdog.d_label;
    check_int "latency = alert - fault" 600 (Watchdog.detection_latency_ns d);
    check_bool "latency bounded by interval" true
      (Watchdog.detection_latency_ns d <= Timeseries.interval_ns ts)
  | _ -> Alcotest.fail "expected one detection");
  let aj = Watchdog.alerts_json w in
  check_contains "alerts_json has detections" aj {|"detections":[|};
  check_contains "alerts_json detection entry" aj
    {|{"label":"crash","rule":"down","key":"up","fault_t_ns":1400,"alert_t_ns":2000,"latency_ns":600}|}

let test_watchdog_rule_of_string () =
  List.iter
    (fun (spec, name) ->
      check_string spec name (Watchdog.rule_name (Watchdog.rule_of_string spec)))
    [ ("server-down:vblade.up<0.5", "server-down");
      ("q>3@2", "q>3@2");
      ("spike:rate(net.bytes_delivered)>1e9", "spike");
      ("gone:absent(vblade.up)@4", "gone");
      ("stuck:stale(copy.bytes)@3", "stuck") ];
  List.iter
    (fun spec ->
      expect_invalid_arg spec (fun () -> Watchdog.rule_of_string spec))
    [ ""; "novalue>"; "x<notafloat"; "rate(x)"; "absent(x)@0"; "stale(x)@1" ];
  (* parsed rules behave like constructed ones *)
  let m = Metrics.create () in
  let g = Metrics.gauge m "q" in
  let ts = Timeseries.create ~interval_ns:1000 m in
  let w = Watchdog.create [ Watchdog.rule_of_string "hot:q>5@2" ] in
  Watchdog.attach w ts;
  drive ts g [ 6.0; 6.0; 1.0 ];
  check_int "parsed hold honoured" 1 (Watchdog.alert_count w);
  (match Watchdog.alerts w with
  | [ a ] -> check_int "fires at second breach" 2000 a.Watchdog.a_at
  | _ -> Alcotest.fail "expected one alert")

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "obs"
    [ ( "stats",
        [ Alcotest.test_case "histogram empty contract" `Quick
            test_histogram_empty;
          Alcotest.test_case "percentile interpolation" `Quick
            test_percentile_interpolation;
          Alcotest.test_case "percentile edges" `Quick test_percentile_edges;
          Alcotest.test_case "histogram spill" `Quick test_histogram_spill;
          qt prop_bucketed_percentile_error;
          qt prop_percentile_bounds;
          Alcotest.test_case "per_window zero-fills gaps" `Quick
            test_per_window_zero_fills_gaps;
          Alcotest.test_case "window boundaries are half-open" `Quick
            test_window_boundaries ] );
      ( "trace",
        [ Alcotest.test_case "null tracer records nothing" `Quick
            test_null_tracer;
          Alcotest.test_case "span nesting and timestamps" `Quick
            test_span_nesting_and_timestamps;
          Alcotest.test_case "category filter" `Quick test_category_filter;
          Alcotest.test_case "ring drops oldest" `Quick test_ring_drops_oldest;
          Alcotest.test_case "export shapes" `Quick test_export_shapes;
          Alcotest.test_case "exports deterministic" `Quick
            test_export_deterministic ] );
      ( "metrics",
        [ Alcotest.test_case "handle reuse" `Quick test_metrics_handle_reuse;
          Alcotest.test_case "label order" `Quick test_metrics_label_order;
          Alcotest.test_case "kind mismatch" `Quick test_metrics_kind_mismatch;
          Alcotest.test_case "null is stateless" `Quick
            test_metrics_null_is_stateless;
          Alcotest.test_case "to_json" `Quick test_metrics_to_json;
          Alcotest.test_case "typed snapshot" `Quick
            test_metrics_typed_snapshot ] );
      ( "timeseries",
        [ Alcotest.test_case "status and raw ring" `Quick
            test_timeseries_status_and_raw;
          Alcotest.test_case "max_keys cap" `Quick test_timeseries_max_keys;
          Alcotest.test_case "eviction and rollup" `Quick
            test_timeseries_eviction_and_rollup;
          qt prop_rollup_conservation;
          Alcotest.test_case "exports" `Quick test_timeseries_exports ] );
      ( "watchdog",
        [ Alcotest.test_case "threshold episodes" `Quick
            test_watchdog_threshold_episodes;
          Alcotest.test_case "rate / absent / stale" `Quick
            test_watchdog_rate_absent_stale;
          Alcotest.test_case "key matching" `Quick test_watchdog_key_matching;
          Alcotest.test_case "detection latency" `Quick
            test_watchdog_detection_latency;
          Alcotest.test_case "rule_of_string" `Quick
            test_watchdog_rule_of_string ] );
      ( "profile",
        [ Alcotest.test_case "null is inert" `Quick test_profile_null_is_inert;
          Alcotest.test_case "nested attribution" `Quick
            test_profile_attribution;
          Alcotest.test_case "mismatches counted" `Quick
            test_profile_mismatch_counted ] );
      ( "analytics",
        [ Alcotest.test_case "synthetic boot pipeline" `Quick
            test_analytics_pipeline;
          Alcotest.test_case "untagged events ignored" `Quick
            test_analytics_ignores_untagged ] );
      ( "e2e",
        [ Alcotest.test_case "chaos trace is byte-deterministic" `Quick
            test_trace_deterministic_chaos;
          Alcotest.test_case "disabled tracer is inert" `Quick
            test_disabled_tracer_is_inert;
          Alcotest.test_case "metrics match Vmm.totals" `Quick
            test_metrics_match_vmm_totals ] ) ]
