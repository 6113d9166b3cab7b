(* Tests for the discrete-event simulation engine. *)

module Time = Bmcast_engine.Time
module Heap = Bmcast_engine.Heap
module Ring = Bmcast_engine.Ring
module Wheel = Bmcast_engine.Timer_wheel
module Prng = Bmcast_engine.Prng
module Sim = Bmcast_engine.Sim
module Mailbox = Bmcast_engine.Mailbox
module Semaphore = Bmcast_engine.Semaphore
module Signal = Bmcast_engine.Signal
module Stats = Bmcast_engine.Stats

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)
let check_float = Alcotest.(check (float 1e-9))

(* --- Time --- *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "s" 1_000_000_000 (Time.s 1);
  check_int "minutes" 60_000_000_000 (Time.minutes 1);
  check_int "of_float_s" (Time.ms 1500) (Time.of_float_s 1.5);
  check_float "to_float_s" 2.5 (Time.to_float_s (Time.ms 2500))

let test_time_arith () =
  check_int "add" (Time.s 3) (Time.add (Time.s 1) (Time.s 2));
  check_int "diff" (Time.s 1) (Time.diff (Time.s 3) (Time.s 2));
  check_int "mul" (Time.s 6) (Time.mul (Time.s 2) 3);
  check_int "div" (Time.s 2) (Time.div (Time.s 6) 3)

let test_time_pp () =
  Alcotest.(check string) "ns" "999ns" (Time.to_string 999);
  Alcotest.(check string) "s" "1.500s" (Time.to_string (Time.ms 1500))

(* --- Heap --- *)

let test_heap_order () =
  let h = Heap.create () in
  Heap.push h 30 "c";
  Heap.push h 10 "a";
  Heap.push h 20 "b";
  let order = List.init 3 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list string)) "sorted" [ "a"; "b"; "c" ] order;
  check_bool "empty" true (Heap.is_empty h)

let test_heap_fifo_ties () =
  let h = Heap.create () in
  for i = 0 to 9 do
    Heap.push h 5 i
  done;
  let order = List.init 10 (fun _ -> snd (Option.get (Heap.pop h))) in
  Alcotest.(check (list int)) "fifo among equal times" (List.init 10 Fun.id) order

let test_heap_peek () =
  let h = Heap.create () in
  Alcotest.(check (option int)) "peek empty" None (Heap.peek_time h);
  Heap.push h 42 ();
  Alcotest.(check (option int)) "peek" (Some 42) (Heap.peek_time h);
  check_int "size" 1 (Heap.size h)

let test_heap_interleaved () =
  (* Push/pop interleaving maintains order. *)
  let h = Heap.create () in
  let prng = Prng.create 7 in
  let popped = ref [] in
  for _ = 1 to 500 do
    Heap.push h (Prng.int prng 1000) ()
  done;
  for _ = 1 to 250 do
    match Heap.pop h with
    | Some (t, ()) -> popped := t :: !popped
    | None -> ()
  done;
  for _ = 1 to 500 do
    Heap.push h (500 + Prng.int prng 1000) ()
  done;
  let rec drain () =
    match Heap.pop h with
    | Some (t, ()) ->
      popped := t :: !popped;
      drain ()
    | None -> ()
  in
  drain ();
  let l = List.rev !popped in
  (* First 250 pops are sorted; remaining pops are sorted. *)
  let rec is_sorted = function
    | a :: (b :: _ as rest) -> a <= b && is_sorted rest
    | _ -> true
  in
  let first, rest =
    (List.filteri (fun i _ -> i < 250) l, List.filteri (fun i _ -> i >= 250) l)
  in
  check_bool "first sorted" true (is_sorted first);
  check_bool "rest sorted" true (is_sorted rest)

let prop_heap_sorted =
  QCheck.Test.make ~name:"heap pops in nondecreasing time order" ~count:200
    QCheck.(list (int_bound 10_000))
    (fun times ->
      let h = Heap.create () in
      List.iter (fun t -> Heap.push h t ()) times;
      let rec drain acc =
        match Heap.pop h with
        | Some (t, ()) -> drain (t :: acc)
        | None -> List.rev acc
      in
      let out = drain [] in
      out = List.sort compare times)

(* Model-based oracle for the engine's queue: any interleaving of
   pushes (equal-time bursts and far-future times included) with
   [next_time], [pop_exn], [pop] and [peek_time] must agree with a list
   kept sorted by (time, insertion index). Long sequences outgrow the
   initial 64 entries, so growth is on the tested path too. *)

type heap_op = HPush of int | HNext | HPop_exn | HPop | HPeek_time

let pp_heap_op = function
  | HPush d -> Printf.sprintf "push+%d" d
  | HNext -> "next_time"
  | HPop_exn -> "pop_exn"
  | HPop -> "pop"
  | HPeek_time -> "peek_time"

(* A failing sequence shrinks by dropping ops and by pulling push
   offsets toward 0, so a counterexample prints only the ops it needs. *)
let shrink_heap_op = function
  | HPush d -> QCheck.Iter.map (fun d -> HPush d) (QCheck.Shrink.int d)
  | HNext | HPop_exn | HPop | HPeek_time -> QCheck.Iter.empty

let arb_heap_ops gen =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_heap_op ops))
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_heap_op)
    gen

let gen_heap_ops =
  let open QCheck.Gen in
  let delta =
    frequency
      [ (4, return 0);
        (5, int_bound 1000);
        (2, int_bound 2_000_000);
        (1, map (fun k -> 1_000_000_000_000 + k) (int_bound 3)) ]
  in
  let op =
    frequency
      [ (8, map (fun d -> HPush d) delta);
        (2, return HNext);
        (2, return HPop_exn);
        (2, return HPop);
        (1, return HPeek_time) ]
  in
  arb_heap_ops (list_size (int_range 1 800) op)

(* Same-time entries: every push lands 0-3 ns after the last popped
   time and pops are nearly as frequent, so a time's run of pushes is
   interrupted by another time (T, U, T), re-opened after it drains,
   and appended to while it is being drained. *)
let gen_heap_window_ops =
  let open QCheck.Gen in
  let op =
    frequency
      [ (6, map (fun d -> HPush d) (int_bound 3));
        (1, return HNext);
        (3, return HPop_exn);
        (1, return HPop);
        (1, return HPeek_time) ]
  in
  arb_heap_ops (list_size (int_range 1 400) op)

let heap_matches_model ops =
  let h = Heap.create () in
  (* (time, insertion index), sorted; the index is also the payload *)
  let model = ref [] in
  let n = ref 0 in
  let base = ref 0 in
  let insert e =
    let rec go = function
      | [] -> [ e ]
      | x :: rest as l -> if compare e x < 0 then e :: l else x :: go rest
    in
    model := go !model
  in
  let ok = ref true in
  let expect b = if not b then ok := false in
  let model_pop () =
    match !model with
    | [] -> None
    | ((t, _) as e) :: rest ->
      model := rest;
      base := t;
      Some e
  in
  List.iter
    (fun op ->
      (match op with
      | HPush d ->
        let t = !base + d in
        Heap.push h t !n;
        insert (t, !n);
        incr n
      | HNext ->
        expect
          (Heap.next_time h
          = match !model with [] -> Heap.no_time | (t, _) :: _ -> t)
      | HPop_exn -> (
        match model_pop () with
        | None ->
          expect
            (match Heap.pop_exn h with
            | _ -> false
            | exception Invalid_argument _ -> true)
        | Some (_, id) -> expect (Heap.pop_exn h = id))
      | HPop -> expect (Heap.pop h = model_pop ())
      | HPeek_time ->
        expect (Heap.peek_time h = Option.map fst (List.nth_opt !model 0)));
      expect (Heap.size h = List.length !model))
    ops;
  let rec drain () =
    match model_pop () with
    | None -> expect (Heap.is_empty h && Heap.pop h = None)
    | Some e ->
      expect (Heap.pop h = Some e);
      drain ()
  in
  drain ();
  !ok

let prop_heap_matches_model =
  QCheck.Test.make ~name:"heap ≡ sorted-list model (time, insertion)"
    ~count:500 gen_heap_ops heap_matches_model

let prop_heap_window_matches_model =
  QCheck.Test.make
    ~name:"heap ≡ sorted-list model, pushes within 3 ns of the last pop"
    ~count:500 gen_heap_window_ops heap_matches_model

(* Push three fresh blocks at one time, so they share an entry, and pop
   the first two, keeping only weak pointers to them. Not inlined, so
   no register or stack slot of the caller still holds a block when it
   collects. *)
let[@inline never] push_three_pop_two h =
  let w = Weak.create 3 in
  for i = 0 to 2 do
    let b = Bytes.make 64 (Char.chr (Char.code 'a' + i)) in
    Weak.set w i (Some b);
    Heap.push h 5 b
  done;
  for _ = 1 to 2 do
    ignore (Sys.opaque_identity (Heap.pop_exn h) : Bytes.t)
  done;
  w

let test_heap_pop_releases () =
  let h = Heap.create () in
  let w = push_three_pop_two h in
  Gc.full_major ();
  check_bool "first value collected" true (Option.is_none (Weak.get w 0));
  check_bool "value popped mid-entry collected" true
    (Option.is_none (Weak.get w 1));
  check_bool "queued value kept" true (Option.is_some (Weak.get w 2));
  check_int "one left" 1 (Heap.size h)

(* Once the queue has grown to its working size, the engine's
   next_time/pop_exn/push cycle allocates nothing. *)
let test_heap_warm_cycle_allocates_nothing () =
  let h = Heap.create () in
  for i = 0 to 999 do
    Heap.push h (i mod 7) i
  done;
  let cycle () =
    for _ = 1 to 10_000 do
      let t = Heap.next_time h in
      let v = Heap.pop_exn h in
      Heap.push h (t + 1 + (v mod 13)) v
    done
  in
  cycle ();
  let w0 = Gc.minor_words () in
  cycle ();
  let w1 = Gc.minor_words () in
  check_int "minor words" 0 (int_of_float (w1 -. w0))

(* --- Timer_wheel --- *)

let drain_wheel w =
  let rec go acc =
    match Wheel.pop w with Some e -> go (e :: acc) | None -> List.rev acc
  in
  go []

let test_wheel_order () =
  let w = Wheel.create ~dummy:"" () in
  ignore (Wheel.push w 30 "c");
  ignore (Wheel.push w 10 "a");
  ignore (Wheel.push w 20 "b");
  Alcotest.(check (list (pair int string)))
    "sorted"
    [ (10, "a"); (20, "b"); (30, "c") ]
    (drain_wheel w);
  check_bool "empty" true (Wheel.is_empty w)

let test_wheel_fifo_ties () =
  let w = Wheel.create ~dummy:(-1) () in
  for i = 0 to 9 do
    ignore (Wheel.push w 5 i)
  done;
  Alcotest.(check (list int))
    "fifo among equal times"
    (List.init 10 Fun.id)
    (List.map snd (drain_wheel w))

let test_wheel_time_zero () =
  (* An event at Time.zero is valid and fires first, even when pushed
     after later events. *)
  let w = Wheel.create ~dummy:(-1) () in
  ignore (Wheel.push w (Time.ms 1) 1);
  ignore (Wheel.push w Time.zero 0);
  Alcotest.(check (list (pair int int)))
    "zero first"
    [ (Time.zero, 0); (Time.ms 1, 1) ]
    (drain_wheel w)

let test_wheel_tick_boundaries () =
  (* Times exactly on wheel-tick boundaries (multiples of 256^k) land on
     level boundaries; order must be unaffected. *)
  let w = Wheel.create ~dummy:(-1) () in
  let times = [ 256; 255; 257; 65536; 65535; 65537; 16777216; 0; 16777215 ] in
  List.iteri (fun i t -> ignore (Wheel.push w t i)) times;
  Alcotest.(check (list int))
    "boundary times sorted"
    (List.sort compare times)
    (List.map fst (drain_wheel w))

let test_wheel_cascade () =
  (* A spread of times across byte boundaries forces higher-level slots
     to cascade down as the cursor advances. *)
  let w = Wheel.create ~dummy:(-1) () in
  let prng = Prng.create 11 in
  let times = List.init 500 (fun _ -> Prng.int prng 5_000_000) in
  List.iteri (fun i t -> ignore (Wheel.push w t i)) times;
  let out = drain_wheel w in
  Alcotest.(check (list int)) "sorted" (List.sort compare times) (List.map fst out);
  check_bool "cascades happened" true ((Wheel.stats w).Wheel.cascaded > 0)

let test_wheel_overflow_promotion () =
  (* With a 2-level wheel (horizon 65536 ns) far-future events overflow
     to the heap tier and get promoted back once the wheel drains. *)
  let w = Wheel.create ~levels:2 ~dummy:(-1) () in
  ignore (Wheel.push w 10 0);
  ignore (Wheel.push w 1_000_000 1);
  ignore (Wheel.push w 900_000 2);
  ignore (Wheel.push w 1_000_000 3);
  check_bool "overflowed" true ((Wheel.stats w).Wheel.far_pushed >= 3);
  Alcotest.(check (list (pair int int)))
    "order across tiers"
    [ (10, 0); (900_000, 2); (1_000_000, 1); (1_000_000, 3) ]
    (drain_wheel w);
  check_bool "promoted" true ((Wheel.stats w).Wheel.promoted > 0)

let test_wheel_backlog_after_peek () =
  (* peek_time on a far-future event advances the internal cursor (the
     Sim.run ~until park pattern); a later push at an earlier time must
     still pop first. *)
  let w = Wheel.create ~levels:2 ~dummy:(-1) () in
  ignore (Wheel.push w 100_000 1);
  Alcotest.(check (option int)) "peek far" (Some 100_000) (Wheel.peek_time w);
  ignore (Wheel.push w 50_000 0);
  Alcotest.(check (list (pair int int)))
    "earlier push still first"
    [ (50_000, 0); (100_000, 1) ]
    (drain_wheel w)

let test_wheel_cancel () =
  let w = Wheel.create ~dummy:(-1) () in
  let t0 = Wheel.push w 10 0 in
  let t1 = Wheel.push w 20 1 in
  let t2 = Wheel.push w 10 2 in
  check_bool "cancel live" true (Wheel.cancel w t1);
  check_int "size after cancel" 2 (Wheel.size w);
  check_bool "double cancel" false (Wheel.cancel w t1);
  Alcotest.(check (list (pair int int)))
    "cancelled event skipped"
    [ (10, 0); (10, 2) ]
    (drain_wheel w);
  check_bool "cancel after fire" false (Wheel.cancel w t0);
  check_bool "cancel after fire 2" false (Wheel.cancel w t2)

let test_wheel_cancel_fired_slot () =
  (* Cancelling a token whose slot already fired must be a no-op even
     after the pool entry has been recycled by a new push. *)
  let w = Wheel.create ~dummy:(-1) () in
  let tok = Wheel.push w 5 0 in
  Alcotest.(check (option (pair int int))) "fired" (Some (5, 0)) (Wheel.pop w);
  ignore (Wheel.push w 7 1);
  check_bool "stale token rejected" false (Wheel.cancel w tok);
  check_int "recycled event untouched" 1 (Wheel.size w);
  Alcotest.(check (option (pair int int))) "recycled fires" (Some (7, 1)) (Wheel.pop w)

let test_wheel_next_time_pop_exn () =
  let w = Wheel.create ~dummy:(-1) () in
  check_int "empty sentinel" Wheel.no_time (Wheel.next_time w);
  Alcotest.check_raises "pop_exn empty"
    (Invalid_argument "Timer_wheel.pop_exn: empty") (fun () ->
      ignore (Wheel.pop_exn w));
  ignore (Wheel.push w 9 42);
  check_int "next_time" 9 (Wheel.next_time w);
  check_int "pop_exn" 42 (Wheel.pop_exn w);
  check_int "empty again" Wheel.no_time (Wheel.next_time w)

(* Randomized equivalence against the engine's heap: any interleaving
   of pushes (with same-timestamp bursts, tick boundaries and far-future
   times), cancels, peeks and pops must produce the identical event
   stream from both schedulers. *)

type wheel_op = WPush of int | WCancel of int | WAdvance of int | WPeek

let pp_wheel_op = function
  | WPush d -> Printf.sprintf "push+%d" d
  | WCancel i -> Printf.sprintf "cancel#%d" i
  | WAdvance n -> Printf.sprintf "pop*%d" n
  | WPeek -> "peek"

let gen_wheel_ops =
  let open QCheck.Gen in
  let delta =
    frequency
      [ (3, return 0);
        (5, int_bound 1000);
        (2, map (fun k -> k * 256) (int_bound 600));
        (2, int_bound 2_000_000);
        (1, map (fun k -> 70_000 + k) (int_bound 200_000));
        (1, map (fun k -> 1_000_000_000 + k) (int_bound 3)) ]
  in
  let op =
    frequency
      [ (6, map (fun d -> WPush d) delta);
        (2, map (fun i -> WCancel i) (int_bound 60));
        (2, map (fun n -> WAdvance n) (int_bound 8));
        (1, return WPeek) ]
  in
  let shrink_op = function
    | WPush d -> QCheck.Iter.map (fun d -> WPush d) (QCheck.Shrink.int d)
    | WCancel i -> QCheck.Iter.map (fun i -> WCancel i) (QCheck.Shrink.int i)
    | WAdvance n -> QCheck.Iter.map (fun n -> WAdvance n) (QCheck.Shrink.int n)
    | WPeek -> QCheck.Iter.empty
  in
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map pp_wheel_op ops))
    ~shrink:(QCheck.Shrink.list ~shrink:shrink_op)
    (list_size (int_range 1 150) op)

let wheel_matches_heap ~levels ops =
  let w = Wheel.create ~levels ~dummy:(-1) () in
  let h = Heap.create () in
  let canceled = Hashtbl.create 16 in
  let fired = Hashtbl.create 16 in
  let tokens = ref [||] in
  let n_pushed = ref 0 in
  let base = ref 0 in
  let next_id = ref 0 in
  let live = ref 0 in
  let ref_pop () =
    let rec go () =
      match Heap.pop h with
      | None -> None
      | Some (_, id) when Hashtbl.mem canceled id -> go ()
      | Some _ as e -> e
    in
    go ()
  in
  let ok = ref true in
  let expect b = if not b then ok := false in
  List.iter
    (fun op ->
      if !ok then
        match op with
        | WPush d ->
          let t = !base + d in
          let id = !next_id in
          incr next_id;
          let tok = Wheel.push w t id in
          Heap.push h t id;
          tokens := Array.append !tokens [| (id, tok) |];
          incr n_pushed;
          incr live;
          expect (Wheel.size w = !live)
        | WCancel i ->
          if !n_pushed > 0 then begin
            let id, tok = !tokens.(i mod !n_pushed) in
            let expected =
              (not (Hashtbl.mem fired id)) && not (Hashtbl.mem canceled id)
            in
            let got = Wheel.cancel w tok in
            expect (got = expected);
            if expected then begin
              Hashtbl.replace canceled id ();
              decr live
            end;
            expect (Wheel.size w = !live)
          end
        | WAdvance n ->
          for _ = 1 to n do
            let got = Wheel.pop w in
            let want = ref_pop () in
            expect (got = want);
            (match want with
            | Some (t, id) ->
              Hashtbl.replace fired id ();
              decr live;
              base := t
            | None -> ())
          done
        | WPeek ->
          (* normalize the reference: a cancelled heap top is invisible
             (ref_pop would skip it), so drop it before comparing *)
          let rec ref_peek () =
            match Heap.peek h with
            | Some (_, id) when Hashtbl.mem canceled id ->
              ignore (Heap.pop h);
              ref_peek ()
            | Some (t, _) -> Some t
            | None -> None
          in
          expect (Wheel.peek_time w = ref_peek ()))
    ops;
  (* drain both completely *)
  let rec drain () =
    if !ok then begin
      let got = Wheel.pop w in
      let want = ref_pop () in
      expect (got = want);
      match want with
      | Some (_, id) ->
        Hashtbl.replace fired id ();
        decr live;
        drain ()
      | None -> ()
    end
  in
  drain ();
  if !ok then expect (Wheel.is_empty w);
  !ok

let prop_wheel_equiv_heap =
  QCheck.Test.make ~name:"timer wheel ≡ reference heap (6 levels)" ~count:300
    gen_wheel_ops
    (wheel_matches_heap ~levels:6)

let prop_wheel_equiv_heap_tiny =
  (* 2-level wheel: the same workloads constantly overflow/promote
     through the heap tier. *)
  QCheck.Test.make ~name:"timer wheel ≡ reference heap (2 levels)" ~count:300
    gen_wheel_ops
    (wheel_matches_heap ~levels:2)

(* --- Prng --- *)

let test_prng_determinism () =
  let a = Prng.create 123 and b = Prng.create 123 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.bits64 a) (Prng.bits64 b)
  done

let test_prng_split_independent () =
  let a = Prng.create 1 in
  let b = Prng.split a in
  let xs = List.init 10 (fun _ -> Prng.bits64 a) in
  let ys = List.init 10 (fun _ -> Prng.bits64 b) in
  check_bool "streams differ" true (xs <> ys)

let test_prng_int_bounds () =
  let p = Prng.create 9 in
  for _ = 1 to 10_000 do
    let v = Prng.int p 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_prng_float_bounds () =
  let p = Prng.create 10 in
  for _ = 1 to 10_000 do
    let v = Prng.float p 3.0 in
    check_bool "in range" true (v >= 0.0 && v < 3.0)
  done

let test_prng_exponential_mean () =
  let p = Prng.create 11 in
  let h = Stats.Histogram.create () in
  for _ = 1 to 50_000 do
    Stats.Histogram.add h (Prng.exponential p 5.0)
  done;
  let mu = Stats.Histogram.mean h in
  check_bool "mean near 5" true (abs_float (mu -. 5.0) < 0.2)

let test_prng_gaussian_moments () =
  let p = Prng.create 12 in
  let h = Stats.Histogram.create () in
  for _ = 1 to 50_000 do
    Stats.Histogram.add h (Prng.gaussian p ~mu:10.0 ~sigma:2.0)
  done;
  check_bool "mean near 10" true
    (abs_float (Stats.Histogram.mean h -. 10.0) < 0.1);
  check_bool "std near 2" true
    (abs_float (Stats.Histogram.stddev h -. 2.0) < 0.1)

let test_prng_zipf_skew () =
  let p = Prng.create 13 in
  let counts = Array.make 100 0 in
  for _ = 1 to 20_000 do
    let r = Prng.zipf p ~n:100 ~theta:0.99 in
    check_bool "in range" true (r >= 0 && r < 100);
    counts.(r) <- counts.(r) + 1
  done;
  (* Rank 0 must be much more popular than rank 50. *)
  check_bool "skewed" true (counts.(0) > 10 * max 1 counts.(50))

let test_prng_bernoulli () =
  let p = Prng.create 14 in
  let hits = ref 0 in
  for _ = 1 to 10_000 do
    if Prng.bernoulli p 0.3 then incr hits
  done;
  check_bool "p near 0.3" true (abs_float (float_of_int !hits /. 10_000.0 -. 0.3) < 0.03)

let test_prng_shuffle_permutation () =
  let p = Prng.create 15 in
  let a = Array.init 50 Fun.id in
  Prng.shuffle p a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 Fun.id) sorted

(* --- Sim --- *)

let test_sim_clock_advances () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn_at sim Time.zero (fun () ->
      log := (Sim.clock (), "start") :: !log;
      Sim.sleep (Time.ms 5);
      log := (Sim.clock (), "mid") :: !log;
      Sim.sleep (Time.ms 10);
      log := (Sim.clock (), "end") :: !log);
  Sim.run sim;
  Alcotest.(check (list (pair int string)))
    "timeline"
    [ (Time.zero, "start"); (Time.ms 5, "mid"); (Time.ms 15, "end") ]
    (List.rev !log)

let test_sim_schedule_order () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.schedule sim (Time.ms 2) (fun () -> log := 2 :: !log);
  Sim.schedule sim (Time.ms 1) (fun () -> log := 1 :: !log);
  Sim.schedule sim (Time.ms 3) (fun () -> log := 3 :: !log);
  Sim.run sim;
  Alcotest.(check (list int)) "order" [ 1; 2; 3 ] (List.rev !log)

(* The past-time rejection must identify the entry point and both
   times — it's the error a mis-ordered experiment script sees first. *)
let expect_past_error label f =
  match f () with
  | () -> Alcotest.failf "%s: expected Invalid_argument" label
  | exception Invalid_argument msg ->
    check_bool
      (Printf.sprintf "%s: message names entry point (%s)" label msg)
      true
      (String.length msg > String.length label
      && String.sub msg 0 (String.length label) = label);
    check_bool (Printf.sprintf "%s: message says 'in the past'" label) true
      (let sub = "in the past" in
       let n = String.length msg and m = String.length sub in
       let rec has i = i + m <= n && (String.sub msg i m = sub || has (i + 1)) in
       has 0)

let test_sim_schedule_past_rejected () =
  let sim = Sim.create () in
  Sim.schedule sim (Time.ms 10) (fun () ->
      expect_past_error "Sim.schedule" (fun () ->
          Sim.schedule sim (Time.ms 5) ignore);
      expect_past_error "Sim.spawn_at" (fun () ->
          Sim.spawn_at sim (Time.ms 5) ignore));
  Sim.run sim;
  check_int "clock reached the scheduling point" (Time.ms 10) (Sim.now sim)

let test_sim_until () =
  let sim = Sim.create () in
  let count = ref 0 in
  Sim.spawn_at sim Time.zero (fun () ->
      for _ = 1 to 100 do
        incr count;
        Sim.sleep (Time.ms 1)
      done);
  Sim.run ~until:(Time.ms 10) sim;
  check_bool "stopped early" true (!count <= 11);
  check_int "clock at horizon" (Time.ms 10) (Sim.now sim)

let test_sim_spawn_children () =
  let sim = Sim.create () in
  let sum = ref 0 in
  Sim.spawn_at sim Time.zero (fun () ->
      for i = 1 to 5 do
        Sim.spawn (fun () ->
            Sim.sleep (Time.ms i);
            sum := !sum + i)
      done);
  Sim.run sim;
  check_int "all children ran" 15 !sum

let test_sim_process_failure () =
  let sim = Sim.create () in
  Sim.spawn_at sim ~name:"boom" Time.zero (fun () ->
      Sim.sleep (Time.ms 1);
      failwith "exploded");
  (match Sim.run sim with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Process_failure (name, Failure msg) ->
    Alcotest.(check string) "name" "boom" name;
    Alcotest.(check string) "msg" "exploded" msg
  | exception _ -> Alcotest.fail "wrong exception")

let test_sim_suspend_waker () =
  let sim = Sim.create () in
  let waker_ref = ref None in
  let got = ref 0 in
  Sim.spawn_at sim Time.zero (fun () ->
      let v = Sim.suspend (fun waker -> waker_ref := Some waker) in
      got := v);
  Sim.spawn_at sim (Time.ms 3) (fun () ->
      match !waker_ref with
      | Some w ->
        check_bool "first wake accepted" true (w 42);
        check_bool "second wake rejected" false (w 43)
      | None -> Alcotest.fail "waker not registered");
  Sim.run sim;
  check_int "value delivered" 42 !got

let test_sim_determinism () =
  (* Two identical runs produce identical event orderings. *)
  let run_once () =
    let sim = Sim.create ~seed:5 () in
    let log = ref [] in
    Sim.spawn_at sim Time.zero (fun () ->
        let p = Sim.rand (Sim.self ()) in
        for _ = 1 to 50 do
          Sim.sleep (Prng.int p 1000);
          log := Sim.clock () :: !log
        done);
    Sim.run sim;
    !log
  in
  Alcotest.(check (list int)) "identical" (run_once ()) (run_once ())

let test_sim_yield_interleave () =
  let sim = Sim.create () in
  let log = ref [] in
  Sim.spawn_at sim Time.zero (fun () ->
      log := "a1" :: !log;
      Sim.yield ();
      log := "a2" :: !log);
  Sim.spawn_at sim Time.zero (fun () ->
      log := "b1" :: !log;
      Sim.yield ();
      log := "b2" :: !log);
  Sim.run sim;
  Alcotest.(check (list string)) "interleaved" [ "a1"; "b1"; "a2"; "b2" ] (List.rev !log)

let test_sim_wait_until () =
  let sim = Sim.create () in
  Sim.spawn_at sim Time.zero (fun () ->
      Sim.wait_until (Time.ms 7);
      check_int "at 7ms" (Time.ms 7) (Sim.clock ());
      Sim.wait_until (Time.ms 3);
      check_int "no travel back" (Time.ms 7) (Sim.clock ()));
  Sim.run sim

(* Recurring daemon jobs never keep [run] alive: the loop stops once
   only daemon events remain, so a sampler can tick forever without
   turning an open-ended run into an infinite loop. *)
let test_sim_every_daemon () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  let cancel = Sim.every sim (Time.ms 10) (fun () -> incr ticks) in
  Sim.schedule sim (Time.ms 95) (fun () -> ());
  Sim.run sim;
  check_bool "run terminated at the last real event" true
    (Sim.now sim <= Time.ms 100);
  check_int "ticked every period up to the last event" 9 !ticks;
  cancel ();
  Sim.run sim;
  check_int "cancelled recurrence stops" 9 !ticks;
  (try
     let (_cancel : unit -> unit) = Sim.every sim 0 (fun () -> ()) in
     Alcotest.fail "every 0: expected Invalid_argument"
   with Invalid_argument _ -> ())

let test_sim_every_non_daemon () =
  let sim = Sim.create () in
  let ticks = ref 0 in
  let cancel = Sim.every sim ~daemon:false (Time.ms 10) (fun () -> incr ticks) in
  (* a non-daemon recurrence keeps the run alive up to the horizon *)
  Sim.run ~until:(Time.ms 55) sim;
  check_int "runs to the horizon" 5 !ticks;
  check_int "clock parked at horizon" (Time.ms 55) (Sim.now sim);
  cancel ();
  Sim.run ~until:(Time.ms 200) sim;
  check_int "at most the armed occurrence after cancel" 5 !ticks

let test_sim_create_with_timeseries () =
  let module Metrics = Bmcast_obs.Metrics in
  let module Timeseries = Bmcast_obs.Timeseries in
  let metrics = Metrics.create () in
  let g = Metrics.gauge metrics "g" in
  let ts = Timeseries.create ~interval_ns:(Time.ms 1) metrics in
  let sim = Sim.create ~metrics ~timeseries:ts () in
  Sim.spawn_at sim Time.zero (fun () ->
      Metrics.set g 2.0;
      Sim.sleep (Time.ms 10));
  Sim.run sim;
  (* sampler swept at 1..9 ms; at 10 ms the wake runs, after which only
     the daemon remains and the run ends instead of hanging — the final
     instant is intentionally not sampled *)
  check_int "one sweep per interval" 9 (Timeseries.sweeps ts);
  check_int "last sweep before the final event" (Time.ms 9)
    (Timeseries.last_sweep_at ts);
  (match Timeseries.status ts "g" with
  | Some st ->
    check_int "samples recorded" 9 st.Timeseries.s_count;
    check_bool "sampled the gauge" true (snd st.Timeseries.s_last = 2.0)
  | None -> Alcotest.fail "gauge was not sampled")

(* A prebuilt process started a second time while its first run still
   sleeps runs its body twice at once, each run on its own fiber. *)
let test_sim_process_overlapping_starts () =
  let sim = Sim.create () in
  let log = ref [] in
  let p =
    Sim.process sim ~name:"p" (fun () ->
        let t0 = Sim.clock () in
        Sim.sleep (Time.us 10);
        log := (t0, Sim.clock ()) :: !log)
  in
  Sim.start_at p Time.zero;
  Sim.start_at p (Time.us 1);
  Sim.run sim;
  Alcotest.(check (list (pair int int)))
    "two overlapping runs"
    [ (Time.zero, Time.us 10); (Time.us 1, Time.us 11) ]
    (List.rev !log);
  Sim.start_at p (Time.us 20);
  Sim.run sim;
  check_int "a later start runs it again" 3 (List.length !log);
  expect_past_error "Sim.start_at" (fun () -> Sim.start_at p (Time.us 5))

let test_sim_process_failure_named () =
  let sim = Sim.create () in
  let p =
    Sim.process sim ~name:"prebuilt" (fun () ->
        Sim.sleep (Time.ms 1);
        failwith "body")
  in
  Sim.start_at p Time.zero;
  match Sim.run sim with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Process_failure (name, Failure msg) ->
    Alcotest.(check string) "name" "prebuilt" name;
    Alcotest.(check string) "msg" "body" msg
  | exception _ -> Alcotest.fail "wrong exception"

(* Starting a process from outside records nothing; a [Sim.spawn] from
   inside one records its sampled "spawn" instant, named. *)
let test_sim_start_traces () =
  let tr = Bmcast_obs.Trace.create () in
  let sim = Sim.create ~trace:tr () in
  let child = ref 0 in
  let p = Sim.process sim ~name:"prebuilt" (fun () -> incr child) in
  Sim.start_at p Time.zero;
  Sim.spawn_at sim ~name:"outer" Time.zero (fun () ->
      Sim.spawn ~name:"inner" (fun () -> incr child));
  Sim.run sim;
  check_int "both children ran" 2 !child;
  let spawns = ref [] in
  Bmcast_obs.Trace.iter tr (fun ev ->
      if ev.Bmcast_obs.Trace.name = "spawn" then
        spawns := ev.Bmcast_obs.Trace.args :: !spawns);
  Alcotest.(check int) "one spawn instant" 1 (List.length !spawns);
  check_bool "names the spawned process" true
    (!spawns = [ [ ("proc", Bmcast_obs.Trace.Str "inner") ] ])

(* A callback job records exactly what the process it replaces would:
   the same events at the same times, and byte-identical traces (sleep
   spans, wake instants, and nothing for the first step). *)
let test_sim_job_matches_process () =
  let run make =
    let tr = Bmcast_obs.Trace.create () in
    let sim = Sim.create ~trace:tr () in
    let wake = ref (fun () -> ()) in
    make sim wake;
    Sim.schedule sim (Time.ms 20) (fun () -> !wake ());
    Sim.run sim;
    (Bmcast_obs.Trace.to_jsonl tr, Sim.events_executed sim, Sim.now sim)
  in
  let as_process sim wake =
    Sim.spawn_at sim ~name:"p" Time.zero (fun () ->
        for _ = 1 to 3 do
          Sim.sleep (Time.ms 5)
        done;
        Sim.park (fun w -> wake := fun () -> ignore (w () : bool));
        Sim.sleep (Time.ms 1))
  in
  let as_job sim wake =
    let runs = ref 0 in
    let rec j =
      lazy
        (Sim.job sim ~name:"p" (fun () ->
             incr runs;
             let j = Lazy.force j in
             if !runs <= 3 then Sim.sleep_job j (Time.ms 5)
             else if !runs = 4 then wake := fun () -> Sim.wake_job j
             else if !runs = 5 then Sim.sleep_job j (Time.ms 1)))
    in
    Sim.start_job (Lazy.force j)
  in
  let trace_p, events_p, end_p = run as_process in
  let trace_j, events_j, end_j = run as_job in
  check_int "events" events_p events_j;
  check_int "end time" end_p end_j;
  check_int "clock" (Time.ms 21) end_j;
  Alcotest.(check string) "trace" trace_p trace_j

let test_sim_job_failure () =
  let fails f =
    let sim = Sim.create () in
    Sim.start_job (Sim.job sim ~name:"j" f);
    match Sim.run sim with
    | () -> None
    | exception Sim.Process_failure (name, e) -> Some (name, e)
  in
  (match fails (fun () -> failwith "step") with
  | Some ("j", Failure msg) -> Alcotest.(check string) "cause" "step" msg
  | _ -> Alcotest.fail "an exception fails the run under the job's name");
  (match fails (fun () -> Sim.sleep (Time.ms 1)) with
  | Some ("j", Effect.Unhandled _) -> ()
  | _ -> Alcotest.fail "a job that performs an effect fails the run");
  let sim = Sim.create () in
  let j = Sim.job sim ~name:"j" ignore in
  Sim.start_job j;
  Alcotest.check_raises "queued twice"
    (Invalid_argument "Sim: job j is already queued")
    (fun () -> Sim.wake_job j);
  Sim.run sim;
  Sim.sleep_job j (Time.ms 3);
  Sim.run sim;
  check_int "re-queued after it ran" (Time.ms 3) (Sim.now sim)

(* Events due at one time come from a [schedule] made at an earlier
   clock, from [wake_job]s that a running job pushes at that time, and
   from those jobs' [sleep_job]s onto one later time, with pushes at
   another time falling between pushes at the same time. Each time's
   events run in the order they were pushed. *)
let test_sim_same_time_order () =
  let sim = Sim.create () in
  let log = ref [] in
  let note s =
    log := Printf.sprintf "%s@%d" s (Sim.now sim / Time.ms 1) :: !log
  in
  let at ms s = Sim.schedule sim (Time.ms ms) (fun () -> note s) in
  let workers = ref [||] in
  let work i () =
    note (Printf.sprintf "w%d" i);
    if Sim.now sim = Time.ms 10 then begin
      if i = 1 then at 15 "mid";
      Sim.sleep_job !workers.(i) (Time.ms 10)
    end
  in
  workers :=
    Array.init 3 (fun i -> Sim.job sim ~name:(Printf.sprintf "w%d" i) (work i));
  let driver = ref None in
  let drive () =
    note "driver";
    if Sim.now sim = Time.zero then
      Sim.sleep_job (Option.get !driver) (Time.ms 10)
    else begin
      Sim.wake_job !workers.(0);
      at 15 "other";
      Sim.wake_job !workers.(1);
      Sim.wake_job !workers.(2);
      at 20 "late"
    end
  in
  driver := Some (Sim.job sim ~name:"driver" drive);
  at 10 "early";
  Sim.start_job (Option.get !driver);
  Sim.run sim;
  Alcotest.(check (list string))
    "run order"
    [ "driver@0"; "early@10"; "driver@10"; "w0@10"; "w1@10"; "w2@10";
      "other@15"; "mid@15"; "late@20"; "w0@20"; "w1@20"; "w2@20" ]
    (List.rev !log)

(* A run stopped inside a run of same-time events resumes with the rest
   of them; a callback scheduled at [now] between the two runs comes
   after them. *)
let test_sim_stop_mid_run () =
  let sim = Sim.create () in
  let log = ref [] in
  List.iter
    (fun s ->
      Sim.schedule sim (Time.ms 5) (fun () ->
          log := s :: !log;
          if s = "b" then Sim.request_stop sim))
    [ "a"; "b"; "c"; "d" ];
  Sim.run sim;
  Alcotest.(check (list string)) "stopped after b" [ "a"; "b" ] (List.rev !log);
  check_int "clock" (Time.ms 5) (Sim.now sim);
  Sim.schedule sim (Sim.now sim) (fun () -> log := "now" :: !log);
  Sim.run sim;
  Alcotest.(check (list string))
    "resumed" [ "a"; "b"; "c"; "d"; "now" ] (List.rev !log)

(* --- Ring --- *)

(* Push two fresh blocks and pop the first, keeping only weak pointers
   to them. Not inlined, so no register or stack slot of the caller
   still holds a block when it collects. *)
let[@inline never] push_two_pop_one r =
  let w = Weak.create 2 in
  let a = Bytes.make 64 'a' and b = Bytes.make 64 'b' in
  Weak.set w 0 (Some a);
  Weak.set w 1 (Some b);
  Ring.push r a;
  Ring.push r b;
  ignore (Sys.opaque_identity (Ring.pop r) : Bytes.t);
  w

let test_ring_pop_releases () =
  let r = Ring.create () in
  let w = push_two_pop_one r in
  Gc.full_major ();
  check_bool "popped value collected" true (Option.is_none (Weak.get w 0));
  check_bool "queued value kept" true (Option.is_some (Weak.get w 1));
  check_int "one left" 1 (Ring.length r)

(* Floats pushed through growth and wrap-around come back in order. A
   ring grown from a pushed float would be a flat float array, and the
   immediate [pop] stores into a cleared slot would not fit in it. *)
let test_ring_float_growth () =
  let r = Ring.create () in
  let pushed = ref 0 and popped = ref 0 in
  let push n =
    for _ = 1 to n do
      Ring.push r (float_of_int !pushed);
      incr pushed
    done
  in
  let pop n =
    for _ = 1 to n do
      check_float "fifo order" (float_of_int !popped) (Ring.pop r);
      incr popped
    done
  in
  push 5;
  pop 3;
  push 40;
  pop 20;
  push 100;
  pop (Ring.length r);
  check_int "all popped" !pushed !popped;
  check_bool "empty" true (Ring.is_empty r)

(* --- Mailbox --- *)

let test_mailbox_fifo () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let out = ref [] in
  Sim.spawn_at sim Time.zero (fun () ->
      for i = 1 to 5 do
        Mailbox.send mb i
      done);
  Sim.spawn_at sim Time.zero (fun () ->
      for _ = 1 to 5 do
        out := Mailbox.recv mb :: !out
      done);
  Sim.run sim;
  Alcotest.(check (list int)) "fifo" [ 1; 2; 3; 4; 5 ] (List.rev !out)

let test_mailbox_blocking_recv () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let got_at = ref Time.zero in
  Sim.spawn_at sim Time.zero (fun () ->
      ignore (Mailbox.recv mb : int);
      got_at := Sim.clock ());
  Sim.spawn_at sim (Time.ms 20) (fun () -> Mailbox.send mb 1);
  Sim.run sim;
  check_int "receiver blocked until send" (Time.ms 20) !got_at

let test_mailbox_capacity_blocks_sender () =
  let sim = Sim.create () in
  let mb = Mailbox.create ~capacity:2 () in
  let sent_all_at = ref Time.zero in
  Sim.spawn_at sim Time.zero (fun () ->
      Mailbox.send mb 1;
      Mailbox.send mb 2;
      Mailbox.send mb 3;
      (* blocks until a recv *)
      sent_all_at := Sim.clock ());
  Sim.spawn_at sim (Time.ms 50) (fun () -> ignore (Mailbox.recv mb : int));
  Sim.run sim;
  check_int "third send blocked" (Time.ms 50) !sent_all_at

let test_mailbox_recv_timeout () =
  let sim = Sim.create () in
  let mb : int Mailbox.t = Mailbox.create () in
  let result = ref (Some 0) in
  Sim.spawn_at sim Time.zero (fun () ->
      result := Mailbox.recv_timeout mb (Time.ms 10);
      check_int "timed out at 10ms" (Time.ms 10) (Sim.clock ()));
  Sim.run sim;
  Alcotest.(check (option int)) "none" None !result

let test_mailbox_recv_timeout_success () =
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  let result = ref None in
  Sim.spawn_at sim Time.zero (fun () ->
      result := Mailbox.recv_timeout mb (Time.ms 10));
  Sim.spawn_at sim (Time.ms 5) (fun () -> Mailbox.send mb 99);
  Sim.run sim;
  Alcotest.(check (option int)) "delivered" (Some 99) !result

let test_mailbox_timeout_not_lost () =
  (* A message sent after a receiver timed out must stay in the box. *)
  let sim = Sim.create () in
  let mb = Mailbox.create () in
  Sim.spawn_at sim Time.zero (fun () ->
      ignore (Mailbox.recv_timeout mb (Time.ms 1) : int option));
  Sim.spawn_at sim (Time.ms 5) (fun () -> Mailbox.send mb 7);
  Sim.run sim;
  check_int "message retained" 1 (Mailbox.length mb)

let test_mailbox_try_ops () =
  let sim = Sim.create () in
  Sim.spawn_at sim Time.zero (fun () ->
      let mb = Mailbox.create ~capacity:1 () in
      Alcotest.(check (option int)) "empty" None (Mailbox.try_recv mb);
      check_bool "send ok" true (Mailbox.try_send mb 1);
      check_bool "full" false (Mailbox.try_send mb 2);
      Alcotest.(check (option int)) "recv" (Some 1) (Mailbox.try_recv mb));
  Sim.run sim

(* --- Semaphore --- *)

let test_semaphore_mutual_exclusion () =
  let sim = Sim.create () in
  let sem = Semaphore.create 1 in
  let inside = ref 0 and max_inside = ref 0 in
  for _ = 1 to 5 do
    Sim.spawn_at sim Time.zero (fun () ->
        Semaphore.with_permit sem (fun () ->
            incr inside;
            if !inside > !max_inside then max_inside := !inside;
            Sim.sleep (Time.ms 3);
            decr inside))
  done;
  Sim.run sim;
  check_int "never two inside" 1 !max_inside

let test_semaphore_counting () =
  let sim = Sim.create () in
  let sem = Semaphore.create 3 in
  let done_at = ref [] in
  for _ = 1 to 6 do
    Sim.spawn_at sim Time.zero (fun () ->
        Semaphore.with_permit sem (fun () -> Sim.sleep (Time.ms 10));
        done_at := Sim.clock () :: !done_at)
  done;
  Sim.run sim;
  let sorted = List.sort compare !done_at in
  Alcotest.(check (list int))
    "two batches"
    [ Time.ms 10; Time.ms 10; Time.ms 10; Time.ms 20; Time.ms 20; Time.ms 20 ]
    sorted

let test_semaphore_release_on_exception () =
  let sim = Sim.create () in
  let sem = Semaphore.create 1 in
  Sim.spawn_at sim Time.zero (fun () ->
      (try Semaphore.with_permit sem (fun () -> failwith "oops")
       with Failure _ -> ());
      check_int "released" 1 (Semaphore.available sem));
  Sim.run sim

(* --- Signal --- *)

let test_latch_blocks_then_releases_all () =
  let sim = Sim.create () in
  let latch = Signal.Latch.create () in
  let released = ref [] in
  for i = 1 to 3 do
    Sim.spawn_at sim Time.zero (fun () ->
        Signal.Latch.wait latch;
        released := (i, Sim.clock ()) :: !released)
  done;
  Sim.spawn_at sim (Time.ms 5) (fun () -> Signal.Latch.set latch);
  Sim.run sim;
  check_int "all released" 3 (List.length !released);
  List.iter (fun (_, t) -> check_int "at set time" (Time.ms 5) t) !released

let test_latch_set_is_level_triggered () =
  let sim = Sim.create () in
  let latch = Signal.Latch.create () in
  Signal.Latch.set latch;
  let passed = ref false in
  Sim.spawn_at sim Time.zero (fun () ->
      Signal.Latch.wait latch;
      passed := true);
  Sim.run sim;
  check_bool "no block" true !passed

(* --- Wait queue --- *)

let test_wait_queue_fifo () =
  let sim = Sim.create () in
  (* One process is admitted per token, and takes it. *)
  let tokens = ref 0 in
  let q = Sim.wait_queue sim (fun () -> !tokens > 0) in
  let admitted = ref [] in
  List.iter
    (fun name ->
      Sim.spawn_at sim Time.zero (fun () ->
          Sim.wait q;
          decr tokens;
          admitted := (name, Sim.clock ()) :: !admitted))
    [ "a"; "b"; "c" ];
  (* One token per wake: the two not admitted are re-checked and must
     keep their places. *)
  List.iter
    (fun ms ->
      Sim.spawn_at sim (Time.ms ms) (fun () ->
          incr tokens;
          Sim.wake_all q))
    [ 1; 2; 3 ];
  Sim.run sim;
  Alcotest.(check (list (pair string int)))
    "one per wake, first in first out"
    [ ("a", Time.ms 1); ("b", Time.ms 2); ("c", Time.ms 3) ]
    (List.rev !admitted)

let test_wait_queue_recheck_parks_again () =
  let sim = Sim.create () in
  let ready = ref false in
  let q = Sim.wait_queue sim (fun () -> !ready) in
  let passed = ref 0 and order = ref [] in
  Sim.spawn_at sim Time.zero (fun () ->
      Sim.wait q;
      incr passed;
      order := "x" :: !order);
  (* [w] wakes [x] while the predicate is false, then parks itself
     before [x]'s re-check runs: [x] parks again behind [w]. *)
  Sim.spawn_at sim (Time.ms 1) (fun () ->
      Sim.wake_all q;
      Sim.wait q;
      order := "w" :: !order);
  Sim.run sim;
  check_int "x did not run past wait" 0 !passed;
  check_int "x, w and x's re-check ran" 3 (Sim.events_executed sim);
  ready := true;
  Sim.schedule sim (Time.ms 2) (fun () -> Sim.wake_all q);
  Sim.run sim;
  Alcotest.(check (list string)) "x re-queued at the tail" [ "w"; "x" ]
    (List.rev !order)

let test_wait_queue_empty_wake () =
  let sim = Sim.create () in
  let q = Sim.wait_queue sim (fun () -> true) in
  Sim.wake_all q;
  Sim.spawn_at sim Time.zero (fun () -> Sim.wake_all q);
  Sim.run sim;
  check_int "only the waker ran" 1 (Sim.events_executed sim)

let test_wait_queue_wake_not_remembered () =
  let sim = Sim.create () in
  let ready = ref false in
  let q = Sim.wait_queue sim (fun () -> !ready) in
  let woke_at = ref Time.zero in
  Sim.wake_all q;
  Sim.spawn_at sim Time.zero (fun () ->
      Sim.wait q;
      woke_at := Sim.clock ());
  (* The predicate turning true wakes nobody; the next wake does. *)
  Sim.schedule sim (Time.ms 5) (fun () -> ready := true);
  Sim.schedule sim (Time.ms 8) (fun () -> Sim.wake_all q);
  Sim.run sim;
  check_int "woke on the next wake" (Time.ms 8) !woke_at

let test_wait_queue_recheck_allocates_nothing () =
  let sim = Sim.create () in
  let q = Sim.wait_queue sim (fun () -> false) in
  let passed = ref false in
  Sim.spawn_at sim Time.zero (fun () ->
      Sim.wait q;
      passed := true);
  let words =
    Alloc.words_over_steps sim ~warm:100 ~n:10_000 (fun () -> Sim.wake_all q)
  in
  check_bool "never admitted" false !passed;
  check_float "words over 10,000 re-checks" 0.0 words

let test_wait_queue_episode_allocates_continuation () =
  let sim = Sim.create () in
  let ready = ref false in
  let q = Sim.wait_queue sim (fun () -> !ready) in
  let episodes = ref 0 in
  Sim.spawn_at sim Time.zero (fun () ->
      while true do
        ready := false;
        Sim.wait q;
        incr episodes
      done);
  let n = 10_000 in
  let words =
    Alloc.words_over_steps sim ~warm:100 ~n (fun () ->
        ready := true;
        Sim.wake_all q)
  in
  check_int "one episode per wake" (100 + n) !episodes;
  check_bool
    (Printf.sprintf "%.0f words over %d episodes: at most 2 each" words n)
    true
    (words <= 2.0 *. float_of_int n)

(* A process's sleep allocates its continuation and the [Job_k] event
   that resumes it, 2 words each: the effect is a constant constructor,
   its span rides in a cell, and the heap's entries are reused once it
   has its size. A boxed span or a closure per sleep reads more. *)
let test_sleep_allocates_continuation () =
  let sim = Sim.create () in
  let n = 10_000 and words = ref Float.nan in
  Sim.spawn_at sim Time.zero (fun () ->
      let sleeps k =
        for _ = 1 to k do
          Sim.sleep (Time.us 1)
        done
      in
      sleeps 100;
      words := Alloc.allocated_words (fun () -> sleeps n));
  Sim.run sim;
  let per_sleep = !words /. float_of_int n in
  check_bool
    (Printf.sprintf "%.2f words per sleep over %d sleeps, at most 4" per_sleep
       n)
    true (per_sleep <= 4.0)

(* --- Stats --- *)

let test_histogram_basic () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 1.0; 2.0; 3.0; 4.0; 5.0 ];
  check_int "count" 5 (Stats.Histogram.count h);
  check_float "mean" 3.0 (Stats.Histogram.mean h);
  check_float "min" 1.0 (Stats.Histogram.min h);
  check_float "max" 5.0 (Stats.Histogram.max h);
  check_float "median" 3.0 (Stats.Histogram.median h);
  check_float "p0" 1.0 (Stats.Histogram.percentile h 0.0);
  check_float "p100" 5.0 (Stats.Histogram.percentile h 100.0);
  check_float "p25" 2.0 (Stats.Histogram.percentile h 25.0)

let test_histogram_clear () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.add h 1.0;
  Stats.Histogram.clear h;
  check_int "cleared" 0 (Stats.Histogram.count h)

let test_histogram_stddev () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.add h) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  check_float "stddev" 2.0 (Stats.Histogram.stddev h)

let prop_histogram_percentile_monotone =
  QCheck.Test.make ~name:"histogram percentiles are monotone" ~count:100
    QCheck.(list_of_size (Gen.int_range 1 50) (float_bound_exclusive 1000.0))
    (fun samples ->
      let h = Stats.Histogram.create () in
      List.iter (Stats.Histogram.add h) samples;
      let ps = [ 0.0; 10.0; 25.0; 50.0; 75.0; 90.0; 99.0; 100.0 ] in
      let vals = List.map (Stats.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono vals)

let test_rate_windows () =
  let r = Stats.Rate.create () in
  Stats.Rate.add r (Time.ms 100) 50.0;
  Stats.Rate.add r (Time.ms 900) 50.0;
  Stats.Rate.add r (Time.ms 1500) 200.0;
  check_float "total" 300.0 (Stats.Rate.total r);
  check_float "rate [0,1s)" 100.0 (Stats.Rate.rate_between r Time.zero (Time.s 1));
  let windows = Stats.Rate.per_window r ~width:(Time.s 1) in
  Alcotest.(check (list (pair int (float 1e-9))))
    "windows"
    [ (0, 100.0); (Time.s 1, 200.0) ]
    windows

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "engine"
    [ ( "time",
        [ tc "units" `Quick test_time_units;
          tc "arith" `Quick test_time_arith;
          tc "pp" `Quick test_time_pp ] );
      ( "heap",
        [ tc "order" `Quick test_heap_order;
          tc "fifo ties" `Quick test_heap_fifo_ties;
          tc "peek" `Quick test_heap_peek;
          tc "interleaved" `Quick test_heap_interleaved;
          tc "warm cycle allocates nothing" `Quick
            test_heap_warm_cycle_allocates_nothing;
          tc "pop releases the value" `Quick test_heap_pop_releases;
          QCheck_alcotest.to_alcotest prop_heap_sorted;
          QCheck_alcotest.to_alcotest prop_heap_matches_model;
          QCheck_alcotest.to_alcotest prop_heap_window_matches_model ] );
      ( "timer_wheel",
        [ tc "order" `Quick test_wheel_order;
          tc "fifo ties" `Quick test_wheel_fifo_ties;
          tc "time zero" `Quick test_wheel_time_zero;
          tc "tick boundaries" `Quick test_wheel_tick_boundaries;
          tc "cascade" `Quick test_wheel_cascade;
          tc "overflow promotion" `Quick test_wheel_overflow_promotion;
          tc "backlog after peek" `Quick test_wheel_backlog_after_peek;
          tc "cancel" `Quick test_wheel_cancel;
          tc "cancel fired slot" `Quick test_wheel_cancel_fired_slot;
          tc "next_time/pop_exn" `Quick test_wheel_next_time_pop_exn;
          QCheck_alcotest.to_alcotest prop_wheel_equiv_heap;
          QCheck_alcotest.to_alcotest prop_wheel_equiv_heap_tiny ] );
      ( "prng",
        [ tc "determinism" `Quick test_prng_determinism;
          tc "split" `Quick test_prng_split_independent;
          tc "int bounds" `Quick test_prng_int_bounds;
          tc "float bounds" `Quick test_prng_float_bounds;
          tc "exponential mean" `Quick test_prng_exponential_mean;
          tc "gaussian moments" `Quick test_prng_gaussian_moments;
          tc "zipf skew" `Quick test_prng_zipf_skew;
          tc "bernoulli" `Quick test_prng_bernoulli;
          tc "shuffle permutation" `Quick test_prng_shuffle_permutation ] );
      ( "sim",
        [ tc "clock advances" `Quick test_sim_clock_advances;
          tc "schedule order" `Quick test_sim_schedule_order;
          tc "schedule past rejected" `Quick test_sim_schedule_past_rejected;
          tc "run until" `Quick test_sim_until;
          tc "spawn children" `Quick test_sim_spawn_children;
          tc "process failure" `Quick test_sim_process_failure;
          tc "prebuilt process overlaps" `Quick
            test_sim_process_overlapping_starts;
          tc "prebuilt process failure" `Quick test_sim_process_failure_named;
          tc "starts trace nothing" `Quick test_sim_start_traces;
          tc "suspend waker once" `Quick test_sim_suspend_waker;
          tc "determinism" `Quick test_sim_determinism;
          tc "yield interleave" `Quick test_sim_yield_interleave;
          tc "wait_until" `Quick test_sim_wait_until;
          tc "every daemon job" `Quick test_sim_every_daemon;
          tc "every non-daemon job" `Quick test_sim_every_non_daemon;
          tc "create with timeseries" `Quick test_sim_create_with_timeseries;
          tc "job matches process" `Quick test_sim_job_matches_process;
          tc "job failure" `Quick test_sim_job_failure;
          tc "same-time order" `Quick test_sim_same_time_order;
          tc "stop inside a same-time run" `Quick test_sim_stop_mid_run ] );
      ( "ring",
        [ tc "pop releases the value" `Quick test_ring_pop_releases;
          tc "floats survive growth" `Quick test_ring_float_growth ] );
      ( "mailbox",
        [ tc "fifo" `Quick test_mailbox_fifo;
          tc "blocking recv" `Quick test_mailbox_blocking_recv;
          tc "capacity blocks sender" `Quick test_mailbox_capacity_blocks_sender;
          tc "recv timeout" `Quick test_mailbox_recv_timeout;
          tc "recv timeout success" `Quick test_mailbox_recv_timeout_success;
          tc "timeout does not lose messages" `Quick test_mailbox_timeout_not_lost;
          tc "try ops" `Quick test_mailbox_try_ops ] );
      ( "semaphore",
        [ tc "mutual exclusion" `Quick test_semaphore_mutual_exclusion;
          tc "counting" `Quick test_semaphore_counting;
          tc "release on exception" `Quick test_semaphore_release_on_exception ] );
      ( "signal",
        [ tc "latch releases all" `Quick test_latch_blocks_then_releases_all;
          tc "latch level triggered" `Quick test_latch_set_is_level_triggered ] );
      ( "wait queue",
        [ tc "fifo" `Quick test_wait_queue_fifo;
          tc "false re-check parks at tail" `Quick
            test_wait_queue_recheck_parks_again;
          tc "empty wake queues nothing" `Quick test_wait_queue_empty_wake;
          tc "wake before wait forgotten" `Quick
            test_wait_queue_wake_not_remembered ] );
      (* No section name is longer than "timer_wheel": a longer one
         widens Alcotest's section column and cuts more off the long
         test names it prints. *)
      ( "wait memory",
        [ tc "re-check allocates nothing" `Quick
            test_wait_queue_recheck_allocates_nothing;
          tc "episode allocates its continuation" `Quick
            test_wait_queue_episode_allocates_continuation;
          tc "sleep allocates its continuation" `Quick
            test_sleep_allocates_continuation ] );
      ( "stats",
        [ tc "histogram basic" `Quick test_histogram_basic;
          tc "histogram clear" `Quick test_histogram_clear;
          tc "histogram stddev" `Quick test_histogram_stddev;
          QCheck_alcotest.to_alcotest prop_histogram_percentile_monotone;
          tc "rate windows" `Quick test_rate_windows ] ) ]
