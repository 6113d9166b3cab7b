(* Tests for the storage substrate: content model, extent map, disk
   mechanics, and the AHCI / IDE controller state machines. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Mmio = Bmcast_hw.Mmio
module Pio = Bmcast_hw.Pio
module Irq = Bmcast_hw.Irq
module Content = Bmcast_storage.Content
module Extent_map = Bmcast_storage.Extent_map
module Dma = Bmcast_storage.Dma
module Disk = Bmcast_storage.Disk
module Ahci = Bmcast_storage.Ahci
module Ide = Bmcast_storage.Ide

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

let content_testable =
  Alcotest.testable (fun f c -> Content.pp f (Content.view c)) Content.equal

let view_testable = Alcotest.testable Content.pp ( = )

(* --- Content --- *)

let test_content_equal () =
  check_bool "zero" true (Content.equal Content.zero Content.zero);
  check_bool "image" true (Content.equal (Content.image 5) (Content.image 5));
  check_bool "image neq" false (Content.equal (Content.image 5) (Content.image 6));
  check_bool "kinds" false (Content.equal Content.zero (Content.image 0))

let test_content_constructors () =
  let img = Content.image_sectors ~lba:10 ~count:3 in
  Alcotest.(check (array content_testable))
    "image run"
    [| Content.image 10; Content.image 11; Content.image 12 |]
    img;
  let d = Content.data_sectors ~count:2 in
  check_bool "same tag" true (Content.equal d.(0) d.(1));
  let d2 = Content.data_sectors ~count:1 in
  check_bool "fresh tag" false (Content.equal d.(0) d2.(0))

(* Scratch-pool reuse invariant: a released buffer comes back for the
   next same-length request, and it comes back indistinguishable from a
   fresh [Array.make len Content.zero] — stale contents must never leak into
   the next request. *)
let test_content_scratch_reuse () =
  let len = 48 in
  let before = Content.Scratch.free_count len in
  let a = Content.Scratch.alloc len in
  check_int "requested length" len (Array.length a);
  Array.iteri (fun i c -> a.(i) <- (ignore c; Content.image i)) a;
  Content.Scratch.release a;
  check_int "released to pool" (before + 1) (Content.Scratch.free_count len);
  let b = Content.Scratch.alloc len in
  check_bool "same buffer reused" true (a == b);
  check_bool "contents wiped to Zero" true
    (Array.for_all (Content.equal Content.zero) b);
  (* Distinct lengths live in distinct buckets. *)
  let c = Content.Scratch.alloc (len + 1) in
  check_bool "different length is a different buffer" true (c != b);
  Content.Scratch.release b;
  Content.Scratch.release c

(* The length of the array that serves a scratch request of [n]
   sectors: [n] itself up to 256, the power of two at or above it
   beyond. *)
let scratch_class n =
  if n <= 256 then n
  else begin
    let c = ref 512 in
    while !c < n do
      c := 2 * !c
    done;
    !c
  end

(* The pool's contract over lengths 1-16,384: [alloc n] is exactly [n]
   long up to 256 sectors and a power of two above; its first [n]
   sectors are zero even when the array last served a longer, dirty
   request of its class; and a released array serves any later length
   of its class. *)
let prop_scratch_contract =
  QCheck.Test.make ~name:"scratch arrays come in classes, zeroed, reused"
    ~count:500
    QCheck.(pair (int_range 1 16_384) small_nat)
    (fun (n, r) ->
      let c = scratch_class n in
      let zeroed a len =
        Array.for_all (Content.equal Content.zero) (Array.sub a 0 len)
      in
      let dirty a =
        Content.fill_run a 0 (Array.length a)
          ~run:(Content.run_of (Content.image 7) ~pos:0)
          ~pos:0
      in
      (* The class's longest request, dirtied throughout. *)
      let longest = Content.Scratch.alloc c in
      dirty longest;
      Content.Scratch.release longest;
      let pooled = Content.Scratch.free_count c in
      let a = Content.Scratch.alloc n in
      let first =
        a == longest && Array.length a = c && zeroed a n
        && Content.Scratch.free_count c = pooled - 1
      in
      dirty a;
      Content.Scratch.release a;
      (* Any other length of the class. *)
      let m = if c <= 256 then c else (c / 2) + 1 + (r mod (c / 2)) in
      let b = Content.Scratch.alloc m in
      let later = b == a && zeroed b m in
      Content.Scratch.release b;
      first && later)

(* The encoding's payload range: signed 61-bit ints. *)
let limit = 1 lsl 60

let gen_payload =
  QCheck.Gen.(
    oneof
      [ int_range (-limit) (limit - 1);
        oneofl [ 0; 1; -1; limit - 1; limit - 2; -limit; -limit + 1 ];
        small_signed_int ])

(* Blob strings are built afresh for every view, so equal blobs are
   separately built equal strings. *)
let gen_view =
  QCheck.Gen.(
    frequency
      [ (1, return Content.Zero);
        (3, map (fun x -> Content.Image x) gen_payload);
        (3, map (fun x -> Content.Data x) gen_payload);
        ( 2,
          map
            (fun (n, c) -> Content.Blob (String.make n c))
            (pair (int_bound 3) (char_range 'a' 'c')) ) ])

let print_view v = Format.asprintf "%a" Content.pp v

let prop_content_view_roundtrip =
  QCheck.Test.make ~name:"content view round trip and equality" ~count:500
    (QCheck.make
       ~print:QCheck.Print.(list print_view)
       QCheck.Gen.(list_size (int_range 1 8) gen_view))
    (fun views ->
      List.for_all (fun v -> Content.view (Content.of_view v) = v) views
      && List.for_all
           (fun a ->
             List.for_all
               (fun b ->
                 Content.equal (Content.of_view a) (Content.of_view b) = (a = b))
               views)
           views)

let raises f =
  match f () with _ -> false | exception Invalid_argument _ -> true

let prop_content_out_of_range_raises =
  QCheck.Test.make ~name:"content out-of-range payloads raise" ~count:300
    (QCheck.make ~print:string_of_int
       QCheck.Gen.(
         oneof
           [ int_range limit max_int;
             int_range min_int (-limit - 1);
             oneofl [ limit; -limit - 1; max_int; min_int ] ]))
    (fun x ->
      raises (fun () -> Content.image x)
      && raises (fun () -> Content.data x)
      && raises (fun () -> Content.of_view (Content.Image x))
      && raises (fun () -> Content.of_view (Content.Data x)))

(* [Content.blit]/[fill] against [Array.blit]/[fill] on the same
   windows, valid or not, a source overlapping its destination in
   either direction included. *)
let prop_content_blit_fill_match_array =
  let gen =
    QCheck.Gen.(
      let* n = int_bound 12 and* m = int_bound 12 and* self = bool in
      let bound = 2 + max n m in
      let* src_off = int_range (-2) bound
      and* dst_off = int_range (-2) bound
      and* len = int_range (-2) bound in
      return (n, m, self, src_off, dst_off, len))
  in
  let print (n, m, self, so, d, l) =
    Printf.sprintf "src=%d dst=%d self=%b src_off=%d dst_off=%d len=%d" n m
      self so d l
  in
  QCheck.Test.make ~name:"content blit and fill match Array's" ~count:2000
    (QCheck.make ~print gen)
    (fun (n, m, self, src_off, dst_off, len) ->
      let src0 = Array.init n (fun i -> Content.image i) in
      let dst0 = Array.init m (fun i -> Content.data (100 + i)) in
      let run f =
        let src = Array.copy src0 in
        let dst = if self then src else Array.copy dst0 in
        match f src dst with
        | () -> Ok (src, dst)
        | exception Invalid_argument _ -> Error ()
      in
      let same a b =
        match (a, b) with
        | Ok (s1, d1), Ok (s2, d2) ->
          Array.for_all2 Content.equal s1 s2 && Array.for_all2 Content.equal d1 d2
        | Error (), Error () -> true
        | _ -> false
      in
      let c = Content.blob "fill" in
      same
        (run (fun src dst -> Content.blit src src_off dst dst_off len))
        (run (fun src dst -> Array.blit src src_off dst dst_off len))
      && same
           (run (fun _ dst -> Content.fill dst dst_off len c))
           (run (fun _ dst -> Array.fill dst dst_off len c)))

(* --- Extent_map --- *)

let test_extent_set_get () =
  let m = Extent_map.create () in
  Extent_map.set m ~lba:10 ~count:5 1;
  Alcotest.(check (option int)) "inside" (Some 1) (Extent_map.get m 12);
  Alcotest.(check (option int)) "before" None (Extent_map.get m 9);
  Alcotest.(check (option int)) "after" None (Extent_map.get m 15)

let test_extent_overwrite_splits () =
  let m = Extent_map.create () in
  Extent_map.set m ~lba:0 ~count:10 1;
  Extent_map.set m ~lba:3 ~count:4 2;
  Alcotest.(check (option int)) "left" (Some 1) (Extent_map.get m 2);
  Alcotest.(check (option int)) "mid" (Some 2) (Extent_map.get m 5);
  Alcotest.(check (option int)) "right" (Some 1) (Extent_map.get m 8);
  check_int "three extents" 3 (Extent_map.extent_count m);
  check_int "covered" 10 (Extent_map.covered m)

let test_extent_merge_adjacent () =
  let m = Extent_map.create () in
  Extent_map.set m ~lba:0 ~count:5 1;
  Extent_map.set m ~lba:5 ~count:5 1;
  check_int "merged" 1 (Extent_map.extent_count m);
  Extent_map.set m ~lba:10 ~count:5 2;
  check_int "different value not merged" 2 (Extent_map.extent_count m)

let test_extent_clear_range () =
  let m = Extent_map.create () in
  Extent_map.set m ~lba:0 ~count:10 1;
  Extent_map.clear_range m ~lba:4 ~count:2;
  Alcotest.(check (option int)) "hole" None (Extent_map.get m 5);
  Alcotest.(check (option int)) "left intact" (Some 1) (Extent_map.get m 3);
  Alcotest.(check (option int)) "right intact" (Some 1) (Extent_map.get m 6);
  check_int "covered" 8 (Extent_map.covered m)

(* [iter_range]'s mapped pieces with the gaps between them as [None]
   pieces, in the order visited. Each piece's [off] must be its offset
   from the query's start, and the passed-through value must arrive. *)
let extent_tiles m ~lba ~count =
  let tiles = ref [] and next = ref lba in
  let gap upto =
    if upto > !next then tiles := (!next, upto - !next, None) :: !tiles
  in
  let query = lba in
  Extent_map.iter_range m ~lba ~count "x" ~f:(fun x ~off ~lba ~count v ->
      if x <> "x" || off <> lba - query then
        Alcotest.failf "piece at %d: off %d, value %S" lba off x;
      gap lba;
      tiles := (lba, count, Some v) :: !tiles;
      next := lba + count);
  gap (lba + count);
  List.rev !tiles

let test_extent_iter_range () =
  let m = Extent_map.create () in
  Extent_map.set m ~lba:5 ~count:5 1;
  Extent_map.set m ~lba:15 ~count:5 2;
  Alcotest.(check bool) "exact cover" true
    (extent_tiles m ~lba:0 ~count:25
    = [ (0, 5, None); (5, 5, Some 1); (10, 5, None); (15, 5, Some 2);
        (20, 5, None) ])

let prop_extent_clear_matches_reference =
  (* Interleaved set and clear operations agree with a naive model. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (triple bool (int_range 0 90) (int_range 1 10)))
  in
  QCheck.Test.make ~name:"extent map set/clear agrees with reference" ~count:200
    (QCheck.make gen) (fun ops ->
      let m = Extent_map.create () in
      let reference = Array.make 100 None in
      List.iteri
        (fun k (is_set, lba, count) ->
          let count = min count (100 - lba) in
          if count > 0 then
            if is_set then begin
              Extent_map.set m ~lba ~count k;
              for i = lba to lba + count - 1 do
                reference.(i) <- Some k
              done
            end
            else begin
              Extent_map.clear_range m ~lba ~count;
              for i = lba to lba + count - 1 do
                reference.(i) <- None
              done
            end)
        ops;
      let ok = ref true in
      for i = 0 to 99 do
        if Extent_map.get m i <> reference.(i) then ok := false
      done;
      (* covered must agree too *)
      let covered_ref =
        Array.fold_left (fun acc v -> if v = None then acc else acc + 1) 0 reference
      in
      !ok && Extent_map.covered m = covered_ref)

let prop_extent_covered_range_matches_reference =
  (* covered_range over arbitrary windows agrees with per-sector gets,
     whatever mix of set/clear built the map — the peer-serving guard
     ("does the local disk fully hold this chunk?") relies on it. *)
  let gen =
    QCheck.Gen.(
      pair
        (list_size (int_range 1 40)
           (triple bool (int_range 0 90) (int_range 1 10)))
        (pair (int_range 0 99) (int_range 1 100)))
  in
  QCheck.Test.make ~name:"extent map covered_range agrees with reference"
    ~count:200 (QCheck.make gen)
    (fun (ops, (qlba, qcount)) ->
      let m = Extent_map.create () in
      let reference = Array.make 200 None in
      List.iteri
        (fun k (is_set, lba, count) ->
          if is_set then begin
            Extent_map.set m ~lba ~count k;
            for i = lba to lba + count - 1 do
              reference.(i) <- Some k
            done
          end
          else begin
            Extent_map.clear_range m ~lba ~count;
            for i = lba to lba + count - 1 do
              reference.(i) <- None
            done
          end)
        ops;
      let expect = ref 0 in
      for i = qlba to min 199 (qlba + qcount - 1) do
        if reference.(i) <> None then incr expect
      done;
      Extent_map.covered_range m ~lba:qlba ~count:qcount = !expect)

let prop_extent_matches_reference =
  (* Random sequence of set operations agrees with a naive array model. *)
  let gen =
    QCheck.Gen.(
      list_size (int_range 1 40)
        (triple (int_range 0 90) (int_range 1 10) (int_range 0 3)))
  in
  QCheck.Test.make ~name:"extent map agrees with array reference" ~count:200
    (QCheck.make gen) (fun ops ->
      let m = Extent_map.create () in
      let reference = Array.make 100 None in
      List.iter
        (fun (lba, count, v) ->
          let count = min count (100 - lba) in
          if count > 0 then begin
            Extent_map.set m ~lba ~count v;
            for i = lba to lba + count - 1 do
              reference.(i) <- Some v
            done
          end)
        ops;
      let ok = ref true in
      for i = 0 to 99 do
        if Extent_map.get m i <> reference.(i) then ok := false
      done;
      !ok)

(* Shared generator for extent-map op sequences over a 100-LBA domain:
   (is_set, lba, count, value). *)
let extent_ops_gen =
  QCheck.Gen.(
    list_size (int_range 1 60)
      (quad bool (int_range 0 90) (int_range 1 10) (int_range 0 3)))

let apply_extent_ops ops =
  let m = Extent_map.create () in
  let reference = Array.make 100 None in
  List.iter
    (fun (is_set, lba, count, v) ->
      let count = min count (100 - lba) in
      if count > 0 then
        if is_set then begin
          Extent_map.set m ~lba ~count v;
          for i = lba to lba + count - 1 do
            reference.(i) <- Some v
          done
        end
        else begin
          Extent_map.clear_range m ~lba ~count;
          for i = lba to lba + count - 1 do
            reference.(i) <- None
          done
        end)
    ops;
  (m, reference)

let prop_extent_insert_query_roundtrip =
  (* Every set is immediately observable over its whole range, and
     [covered] tracks the reference exactly after each op. *)
  QCheck.Test.make ~name:"extent map insert/query round-trip" ~count:200
    (QCheck.make extent_ops_gen) (fun ops ->
      let m = Extent_map.create () in
      let reference = Array.make 100 None in
      List.for_all
        (fun (is_set, lba, count, v) ->
          let count = min count (100 - lba) in
          count <= 0
          ||
          if is_set then begin
            Extent_map.set m ~lba ~count v;
            for i = lba to lba + count - 1 do
              reference.(i) <- Some v
            done;
            let ok = ref true in
            for i = lba to lba + count - 1 do
              if Extent_map.get m i <> Some v then ok := false
            done;
            !ok
            && Extent_map.covered m
               = Array.fold_left
                   (fun acc x -> if x = None then acc else acc + 1)
                   0 reference
          end
          else begin
            Extent_map.clear_range m ~lba ~count;
            for i = lba to lba + count - 1 do
              reference.(i) <- None
            done;
            let ok = ref true in
            for i = lba to lba + count - 1 do
              if Extent_map.get m i <> None then ok := false
            done;
            !ok
          end)
        ops)

let prop_extent_coalesced =
  (* Compactness invariant: the map never stores more extents than the
     number of maximal equal-value runs (adjacent equal extents always
     merge, no matter the op order that produced them). *)
  QCheck.Test.make ~name:"extent map stays maximally coalesced" ~count:200
    (QCheck.make extent_ops_gen) (fun ops ->
      let m, reference = apply_extent_ops ops in
      let runs = ref 0 in
      for i = 0 to 99 do
        if reference.(i) <> None && (i = 0 || reference.(i - 1) <> reference.(i))
        then incr runs
      done;
      Extent_map.extent_count m = !runs)

let prop_extent_iter_tiles_exactly =
  (* [iter_range]'s mapped pieces and the gaps between them tile the
     query exactly: in ascending order, no overlap, no gap, each
     uniform and agreeing with the reference; [covered] equals the
     mapped pieces' total. *)
  QCheck.Test.make ~name:"extent map iter_range tiles without overlap"
    ~count:200 (QCheck.make extent_ops_gen) (fun ops ->
      let m, reference = apply_extent_ops ops in
      let next = ref 0 and ok = ref true and mapped = ref 0 in
      List.iter
        (fun (lba, count, v) ->
          if lba <> !next || count <= 0 then ok := false;
          next := lba + count;
          if v <> None then mapped := !mapped + count;
          for i = lba to lba + count - 1 do
            if reference.(i) <> v then ok := false
          done)
        (extent_tiles m ~lba:0 ~count:100);
      !ok && !next = 100 && !mapped = Extent_map.covered m)

let prop_extent_iter_window =
  (* Over any window, [iter_range] clips the extents it visits to the
     window: its pieces and gaps tile exactly the window and agree with
     the reference. *)
  QCheck.Test.make ~name:"extent map iter_range clips to any window"
    ~count:200
    (QCheck.make
       QCheck.Gen.(pair extent_ops_gen (pair (int_range 0 99) (int_range 1 100))))
    (fun (ops, (qlba, qcount)) ->
      let m, reference = apply_extent_ops ops in
      let qcount = min qcount (100 - qlba) in
      let next = ref qlba and ok = ref true in
      List.iter
        (fun (lba, count, v) ->
          if lba <> !next || count <= 0 then ok := false;
          next := lba + count;
          for i = lba to lba + count - 1 do
            if reference.(i) <> v then ok := false
          done)
        (extent_tiles m ~lba:qlba ~count:qcount);
      !ok && !next = qlba + qcount)

(* --- Dma --- *)

let test_dma_alloc_find () =
  let dma = Dma.create () in
  let b = Dma.alloc dma ~sectors:4 in
  check_int "size" 4 (Array.length b.Dma.data);
  let found = Dma.find dma ~addr:b.Dma.addr in
  check_bool "same buffer" true (found == b)

let test_dma_distinct_addresses () =
  let dma = Dma.create () in
  let a = Dma.alloc dma ~sectors:1 and b = Dma.alloc dma ~sectors:1 in
  check_bool "distinct" true (a.Dma.addr <> b.Dma.addr)

let test_dma_read_write_bounds () =
  let dma = Dma.create () in
  let b = Dma.alloc dma ~sectors:4 in
  Dma.blit_to b ~off:1 (Content.image_sectors ~lba:0 ~count:2) ~src_off:0
    ~count:2;
  let out = Array.make 3 (Content.image 9) in
  Dma.blit_from b ~off:0 out ~dst_off:0 ~count:3;
  Alcotest.(check (array content_testable))
    "window" [| Content.zero; Content.image 0; Content.image 1 |] out;
  check_bool "read overflow raises" true
    (try
       Dma.blit_from b ~off:2 out ~dst_off:0 ~count:3;
       false
     with Invalid_argument _ -> true);
  check_bool "overflow raises" true
    (try
       Dma.blit_to b ~off:3 (Content.image_sectors ~lba:0 ~count:2)
         ~src_off:0 ~count:2;
       false
     with Invalid_argument _ -> true)

let test_dma_free () =
  let dma = Dma.create () in
  let b = Dma.alloc dma ~sectors:1 in
  Dma.free dma b;
  check_bool "gone" true
    (try
       ignore (Dma.find dma ~addr:b.Dma.addr : Dma.buf);
       false
     with Invalid_argument _ -> true)

(* --- Disk --- *)

let small_hdd =
  { Disk.hdd_constellation2 with Disk.capacity_sectors = 1 lsl 20 }

let in_proc f =
  let sim = Sim.create () in
  let result = ref None in
  Sim.spawn_at sim Time.zero (fun () -> result := Some (f sim));
  Sim.run sim;
  Option.get !result

let test_disk_poke_peek_roundtrip () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         Disk.poke d ~lba:100 ~count:3 (Content.image_sectors ~lba:100 ~count:3);
         Alcotest.(check (array view_testable))
           "roundtrip"
           [| Content.Image 100; Content.Image 101; Content.Image 102 |]
           (Disk.peek d ~lba:100 ~count:3);
         Alcotest.check content_testable "outside" Content.zero (Disk.sector d 99)))

(* A scratch array may be longer than the run it carries: [poke]
   writes its first [count] sectors and leaves the rest of the disk
   alone; a buffer shorter than [count] is refused. *)
let test_disk_poke_buffer_window () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         Disk.poke d ~lba:100 ~count:5 (Content.image_sectors ~lba:100 ~count:8);
         Alcotest.(check (array view_testable))
           "first count sectors written"
           [| Content.Zero; Content.Image 100; Content.Image 101;
              Content.Image 102; Content.Image 103; Content.Image 104;
              Content.Zero; Content.Zero |]
           (Disk.peek d ~lba:99 ~count:8);
         check_bool "shorter buffer raises" true
           (match Disk.poke d ~lba:0 ~count:9 (Content.zeroes ~count:8) with
           | () -> false
           | exception Invalid_argument _ -> true)))

let test_disk_mixed_content_runs () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         let data =
           Array.concat
             [ Content.image_sectors ~lba:10 ~count:2;
               Content.data_sectors ~count:2;
               [| Content.zero |] ]
         in
         Disk.poke d ~lba:10 ~count:5 data;
         Alcotest.(check (array view_testable))
           "mixed preserved" (Array.map Content.view data)
           (Disk.peek d ~lba:10 ~count:5)))

(* Two overlapping writes built from random runs read back as a
   reference array holds them. A run is zeros, consecutive image
   sectors at a shifted offset, non-consecutive image sectors (stride 2,
   descending, or one sector repeated), one guest write's tag (tags
   repeat across runs), a blob (equal strings in separate runs
   included), or the encoding's edges: image LBAs that wrap from
   2^60 - 1 to -2^60 inside the run, which must not continue it. *)
let prop_disk_poke_peek =
  let write =
    QCheck.Gen.(
      pair (int_range 1 60)
        (list_size (int_range 1 10)
           (triple (int_bound 5) (int_bound 2) (int_range 1 8))))
  in
  let sectors (lba, runs) =
    let pos = ref lba in
    Array.concat
      (List.map
         (fun (kind, k, len) ->
           let run =
             Array.init len (fun i ->
                 match kind with
                 | 0 -> Content.zero
                 | 1 -> Content.image (!pos + i + k - 1)
                 | 2 -> Content.data k
                 | 3 -> Content.blob (String.make 3 (Char.chr (97 + k)))
                 | 4 -> (
                   match k with
                   | 0 -> Content.image (!pos + (2 * i))
                   | 1 -> Content.image (!pos - i)
                   | _ -> Content.image !pos)
                 | _ -> (
                   match k with
                   | 0 ->
                     let x = limit - (len / 2) + i in
                     Content.image (if x >= limit then x - (2 * limit) else x)
                   | 1 -> Content.data (if i land 1 = 0 then limit - 1 else -limit)
                   | _ -> Content.blob (String.make 512 (Char.chr (97 + i)))))
           in
           pos := !pos + len;
           run)
         runs)
  in
  QCheck.Test.make ~name:"disk poke then peek returns the written sectors"
    ~count:300
    (QCheck.make QCheck.Gen.(pair write write))
    (fun (w1, w2) ->
      let sim = Sim.create () in
      let d = Disk.create sim small_hdd in
      let reference = Content.zeroes ~count:200 in
      List.iter
        (fun ((lba, _) as w) ->
          let data = sectors w in
          Disk.poke d ~lba ~count:(Array.length data) data;
          Content.blit data 0 reference lba (Array.length data))
        [ w1; w2 ];
      let staged = Content.zeroes ~count:200 in
      Disk.peek_into d ~lba:0 ~count:200 staged;
      Array.for_all2 Content.equal reference staged
      && Array.map Content.view reference = Disk.peek d ~lba:0 ~count:200)

let test_disk_sequential_faster_than_random () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         (* Sequential read immediately after a read ending at its start. *)
         let _ = Disk.read d ~lba:0 ~count:2048 in
         let seq = Disk.service_time d `Read ~lba:2048 ~count:2048 in
         let far = Disk.service_time d `Read ~lba:900_000 ~count:2048 in
         check_bool "sequential faster" true (seq < far)))

let test_disk_sequential_rate_calibration () =
  (* 1 MB sequential reads should sustain ~117 MB/s like the paper's
     bare-metal fio result (116.6 MB/s). *)
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         let start = Sim.clock () in
         let sectors_per_mb = 2048 in
         for i = 0 to 199 do
           ignore (Disk.read d ~lba:(i * sectors_per_mb) ~count:sectors_per_mb : Content.t array)
         done;
         let elapsed = Time.to_float_s (Time.diff (Sim.clock ()) start) in
         let rate_mb_s = 200.0 /. elapsed in
         check_bool
           (Printf.sprintf "rate %.1f MB/s in [110, 125]" rate_mb_s)
           true
           (rate_mb_s > 110.0 && rate_mb_s < 125.0)))

let test_disk_cache_hit_fast () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         let _ = Disk.read d ~lba:5000 ~count:8 in
         (* Re-read within the cached window: must be a fast cache hit -
            the mediator's dummy-sector trick depends on this. *)
         let hit = Disk.service_time d `Read ~lba:5003 ~count:1 in
         check_int "cache hit time" small_hdd.Disk.cache_hit_time hit))

let test_disk_write_no_cache_hit () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         let _ = Disk.read d ~lba:5000 ~count:8 in
         let w = Disk.service_time d `Write ~lba:5003 ~count:1 in
         check_bool "write not cached" true (w > small_hdd.Disk.cache_hit_time)))

let test_disk_stats () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         ignore (Disk.read d ~lba:0 ~count:4 : Content.t array);
         Disk.write d ~lba:100_000 ~count:8 (Content.data_sectors ~count:8);
         check_int "bytes read" (4 * 512) (Disk.bytes_read d);
         check_int "bytes written" (8 * 512) (Disk.bytes_written d);
         check_bool "seeks counted" true (Disk.seeks d >= 1);
         check_bool "busy time" true (Disk.busy_time d > 0)))

let test_disk_fill_with_image () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         Disk.fill_with_image d;
         Alcotest.check content_testable "first" (Content.image 0) (Disk.sector d 0);
         Alcotest.check content_testable "last"
           (Content.image (small_hdd.Disk.capacity_sectors - 1))
           (Disk.sector d (small_hdd.Disk.capacity_sectors - 1))))

let test_disk_bounds () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim small_hdd in
         check_bool "raises" true
           (try
              ignore (Disk.peek d ~lba:(small_hdd.Disk.capacity_sectors) ~count:1
                      : Content.view array);
              false
            with Invalid_argument _ -> true)))

let test_ssd_no_seek_penalty () =
  ignore
    (in_proc (fun sim ->
         let d = Disk.create sim { Disk.ssd_sata with Disk.capacity_sectors = 1 lsl 20 } in
         let _ = Disk.read d ~lba:0 ~count:8 in
         let near = Disk.service_time d `Read ~lba:8 ~count:8 in
         let far = Disk.service_time d `Read ~lba:900_000 ~count:8 in
         check_int "uniform latency" near far))

(* Words per call over [calls] calls of [f], after one warm-up call. *)
let words_per_call ~calls f =
  f ();
  Alloc.allocated_words (fun () ->
      for _ = 1 to calls do
        f ()
      done)
  /. float_of_int calls

(* A sector is an immediate, so staging 65,536 image sectors that no
   read has produced before allocates nothing per sector: only the
   read's own closures. A boxed sector costs two words each. *)
let test_peek_into_allocates_no_sector_block () =
  let sim = Sim.create () in
  let d = Disk.create sim small_hdd in
  let lba = 300_000 and count = 65_536 in
  Disk.poke d ~lba ~count (Content.image_sectors ~lba ~count);
  let out = Content.zeroes ~count in
  let words = Alloc.allocated_words (fun () -> Disk.peek_into d ~lba ~count out) in
  check_bool "sectors staged" true
    (Array.for_all2 Content.equal out (Content.image_sectors ~lba ~count));
  check_bool
    (Printf.sprintf "%.0f words for %d sectors, at most 256" words count)
    true (words <= 256.0)

(* A data run splits the image disk's one extent in three and the image
   run written back merges them again: the disk's extents are updated
   in place. *)
let test_poke_allocation () =
  let sim = Sim.create () in
  let d = Disk.create sim small_hdd in
  Disk.fill_with_image d;
  let lba = 4096 in
  let data = Content.data_sectors ~count:16 in
  let image = Content.image_sectors ~lba ~count:16 in
  let words =
    words_per_call ~calls:100_000 (fun () ->
        Disk.poke d ~lba ~count:16 data;
        Disk.poke d ~lba ~count:16 image)
    /. 2.0
  in
  Alcotest.(check (array view_testable))
    "image restored"
    (Array.map Content.view (Content.image_sectors ~lba:(lba - 1) ~count:18))
    (Disk.peek d ~lba:(lba - 1) ~count:18);
  check_bool
    (Printf.sprintf "%.1f words per poke, at most 8" words)
    true (words <= 8.0)

(* 64 sectors over image, data, image, data and image extents. *)
let test_peek_into_allocation () =
  let sim = Sim.create () in
  let d = Disk.create sim small_hdd in
  Disk.fill_with_image d;
  let lba = 4096 and count = 64 in
  let expect = Content.image_sectors ~lba ~count in
  List.iter
    (fun off ->
      let data = Content.data_sectors ~count:8 in
      Disk.poke d ~lba:(lba + off) ~count:8 data;
      Content.blit data 0 expect off 8)
    [ 10; 30 ];
  let out = Content.zeroes ~count in
  let words =
    words_per_call ~calls:100_000 (fun () ->
        Content.fill out 0 count Content.zero;
        Disk.peek_into d ~lba ~count out)
  in
  Alcotest.(check (array content_testable)) "sectors staged" expect out;
  check_bool
    (Printf.sprintf "%.1f words per peek_into, at most 16" words)
    true (words <= 16.0)

(* --- AHCI --- *)

type ahci_rig = {
  sim : Sim.t;
  mmio : Mmio.t;
  irq : Irq.t;
  ahci : Ahci.t;
  disk : Disk.t;
  dma : Dma.t;
  clb : int;
}

let ahci_rig () =
  let sim = Sim.create () in
  let mmio = Mmio.create () in
  let irq = Irq.create sim in
  let dma = Dma.create () in
  let disk = Disk.create sim small_hdd in
  let ahci =
    Ahci.create sim ~mmio ~base:0xF000_0000 ~dma ~disk ~irq ~irq_vec:11
  in
  let clb = Ahci.alloc_cmd_list ahci in
  (* Driver init: program CLB, enable interrupts, start the port. *)
  Mmio.write mmio (0xF000_0000 + Ahci.Regs.px_clb) clb;
  Mmio.write mmio (0xF000_0000 + Ahci.Regs.px_ie) 1;
  Mmio.write mmio (0xF000_0000 + Ahci.Regs.px_cmd) 1;
  { sim; mmio; irq; ahci; disk; dma; clb }

let ahci_reg rig off = Mmio.read rig.mmio (0xF000_0000 + off)
let ahci_wreg rig off v = Mmio.write rig.mmio (0xF000_0000 + off) v

(* Issue a command on slot 0 and wait for its IRQ. *)
let ahci_io rig ~op ~lba ~count buf_sectors =
  let buf = Dma.alloc rig.dma ~sectors:buf_sectors in
  let table =
    Ahci.alloc_cmd_table rig.ahci ~op ~lba ~count
      [ { Ahci.buf_addr = buf.Dma.addr; sectors = buf_sectors } ]
  in
  Ahci.set_slot rig.ahci ~clb:rig.clb ~slot:0 ~table_addr:table;
  let completed = ref false in
  Irq.register rig.irq ~vec:11 (fun () ->
      (* ISR: ack interrupt status. *)
      ahci_wreg rig Ahci.Regs.px_is 1;
      completed := true);
  ahci_wreg rig Ahci.Regs.px_ci 1;
  (buf, completed)

let test_ahci_read_flow () =
  let rig = ahci_rig () in
  Disk.poke rig.disk ~lba:1000 ~count:8 (Content.image_sectors ~lba:1000 ~count:8);
  let buf, completed =
    ahci_io rig ~op:Ahci.Read ~lba:1000 ~count:8 8
  in
  Sim.run rig.sim;
  check_bool "irq fired" true !completed;
  Alcotest.(check (array content_testable))
    "data landed in buffer"
    (Content.image_sectors ~lba:1000 ~count:8)
    buf.Dma.data;
  check_int "ci cleared" 0 (ahci_reg rig Ahci.Regs.px_ci);
  check_int "one command" 1 (Ahci.commands_processed rig.ahci)

let test_ahci_write_flow () =
  let rig = ahci_rig () in
  let buf, completed =
    let buf = Dma.alloc rig.dma ~sectors:4 in
    Dma.blit_to buf ~off:0 (Content.data_sectors ~count:4) ~src_off:0 ~count:4;
    let table =
      Ahci.alloc_cmd_table rig.ahci ~op:Ahci.Write ~lba:500 ~count:4
        [ { Ahci.buf_addr = buf.Dma.addr; sectors = 4 } ]
    in
    Ahci.set_slot rig.ahci ~clb:rig.clb ~slot:0 ~table_addr:table;
    let completed = ref false in
    Irq.register rig.irq ~vec:11 (fun () ->
        ahci_wreg rig Ahci.Regs.px_is 1;
        completed := true);
    ahci_wreg rig Ahci.Regs.px_ci 1;
    (buf, completed)
  in
  Sim.run rig.sim;
  check_bool "irq" true !completed;
  Alcotest.(check (array view_testable))
    "disk holds written data" (Array.map Content.view buf.Dma.data)
    (Disk.peek rig.disk ~lba:500 ~count:4)

let test_ahci_busy_while_serving () =
  let rig = ahci_rig () in
  let _buf, _completed =
    ahci_io rig ~op:Ahci.Read ~lba:0 ~count:64 64
  in
  (* Immediately after issue, TFD shows BSY and CI has the bit. *)
  check_bool "bsy" true
    (ahci_reg rig Ahci.Regs.px_tfd land Ahci.tfd_bsy <> 0);
  check_int "ci set" 1 (ahci_reg rig Ahci.Regs.px_ci);
  Sim.run rig.sim;
  check_bool "idle after" true
    (ahci_reg rig Ahci.Regs.px_tfd land Ahci.tfd_bsy = 0)

let test_ahci_no_irq_when_masked () =
  let rig = ahci_rig () in
  ahci_wreg rig Ahci.Regs.px_ie 0;
  let _buf, completed =
    ahci_io rig ~op:Ahci.Read ~lba:0 ~count:1 1
  in
  Sim.run rig.sim;
  check_bool "no isr" false !completed;
  check_int "no irq raised" 0 (Ahci.irqs_raised rig.ahci);
  (* But the command still completed and PxIS is latched. *)
  check_int "completed" 1 (Ahci.commands_processed rig.ahci);
  check_int "is latched" 1 (ahci_reg rig Ahci.Regs.px_is)

let test_ahci_issue_while_stopped_rejected () =
  let rig = ahci_rig () in
  ahci_wreg rig Ahci.Regs.px_cmd 0;
  check_bool "raises" true
    (try
       ahci_wreg rig Ahci.Regs.px_ci 1;
       false
     with Invalid_argument _ -> true)

let test_ahci_multi_slot_fifo () =
  let rig = ahci_rig () in
  Disk.poke rig.disk ~lba:0 ~count:16 (Content.image_sectors ~lba:0 ~count:16);
  let buf0 = Dma.alloc rig.dma ~sectors:8 and buf1 = Dma.alloc rig.dma ~sectors:8 in
  let t0 =
    Ahci.alloc_cmd_table rig.ahci ~op:Ahci.Read ~lba:0 ~count:8
      [ { Ahci.buf_addr = buf0.Dma.addr; sectors = 8 } ]
  and t1 =
    Ahci.alloc_cmd_table rig.ahci ~op:Ahci.Read ~lba:8 ~count:8
      [ { Ahci.buf_addr = buf1.Dma.addr; sectors = 8 } ]
  in
  Ahci.set_slot rig.ahci ~clb:rig.clb ~slot:0 ~table_addr:t0;
  Ahci.set_slot rig.ahci ~clb:rig.clb ~slot:1 ~table_addr:t1;
  ahci_wreg rig Ahci.Regs.px_ci 3;
  Sim.run rig.sim;
  check_int "both done" 2 (Ahci.commands_processed rig.ahci);
  Alcotest.(check (array content_testable))
    "slot1 data" (Content.image_sectors ~lba:8 ~count:8) buf1.Dma.data

let test_ahci_mediator_can_rewrite_command () =
  (* The §3.2 trick: a mediator rewrites a command table to a 1-sector
     dummy read into its own buffer before the device sees it. *)
  let rig = ahci_rig () in
  Disk.poke rig.disk ~lba:0 ~count:64 (Content.image_sectors ~lba:0 ~count:64);
  let guest_buf = Dma.alloc rig.dma ~sectors:32 in
  let table_addr =
    Ahci.alloc_cmd_table rig.ahci ~op:Ahci.Read ~lba:0 ~count:32
      [ { Ahci.buf_addr = guest_buf.Dma.addr; sectors = 32 } ]
  in
  Ahci.set_slot rig.ahci ~clb:rig.clb ~slot:0 ~table_addr;
  (* Mediator: retarget at a dummy buffer, 1 cached sector. *)
  let dummy = Dma.alloc rig.dma ~sectors:1 in
  let ct = Ahci.cmd_table rig.ahci ~addr:table_addr in
  ct.Ahci.op <- Ahci.Read;
  ct.Ahci.lba <- 0;
  ct.Ahci.count <- 1;
  ct.Ahci.prdt <- [ { Ahci.buf_addr = dummy.Dma.addr; sectors = 1 } ];
  ahci_wreg rig Ahci.Regs.px_ci 1;
  Sim.run rig.sim;
  Alcotest.check content_testable "dummy got the sector" (Content.image 0)
    dummy.Dma.data.(0);
  Alcotest.check content_testable "guest buffer untouched" Content.zero
    guest_buf.Dma.data.(0)

(* Command lists and tables are found by address: an unaligned,
   unknown or wrong-kind address is rejected. *)
let test_ahci_structure_lookup () =
  let rig = ahci_rig () in
  let table =
    Ahci.alloc_cmd_table rig.ahci ~op:Ahci.Read ~lba:0 ~count:1
      []
  in
  let rejects what msg f =
    match f () with
    | () -> Alcotest.failf "%s: accepted" what
    | exception Invalid_argument m -> Alcotest.(check string) what msg m
  in
  let table_at addr () = ignore (Ahci.cmd_table rig.ahci ~addr : Ahci.cmd_table) in
  rejects "list as table"
    (Printf.sprintf "Ahci: no command table at 0x%x" rig.clb)
    (table_at rig.clb);
  rejects "unaligned"
    (Printf.sprintf "Ahci: no command table at 0x%x" (table + 8))
    (table_at (table + 8));
  rejects "unknown"
    (Printf.sprintf "Ahci: no command table at 0x%x" (table + 0x1000))
    (table_at (table + 0x1000));
  rejects "below the base" "Ahci: no command table at 0x0" (table_at 0);
  rejects "table as list"
    (Printf.sprintf "Ahci: no command list at 0x%x" table)
    (fun () -> Ahci.set_slot rig.ahci ~clb:table ~slot:0 ~table_addr:table);
  rejects "empty slot" "Ahci: slot 3 is empty" (fun () ->
      ignore (Ahci.slot_table_addr rig.ahci ~clb:rig.clb ~slot:3 : int));
  Ahci.set_slot rig.ahci ~clb:rig.clb ~slot:3 ~table_addr:table;
  check_int "slot set" table (Ahci.slot_table_addr rig.ahci ~clb:rig.clb ~slot:3)

(* A register value is an untagged int on its way through [Mmio] and
   the controller, and the region lookup builds nothing, so a driver's
   polling loop allocates nothing: 100,000 accesses, the reads and the
   acknowledge a driver polls a command with. A boxed value or an option
   per access reads at least 2 words each. *)
let test_ahci_registers_allocate_nothing () =
  let rig = ahci_rig () in
  let words =
    Alloc.allocated_words (fun () ->
        for _ = 1 to 25_000 do
          ignore
            (ahci_reg rig Ahci.Regs.px_ci + ahci_reg rig Ahci.Regs.px_tfd : int);
          ahci_wreg rig Ahci.Regs.px_is (ahci_reg rig Ahci.Regs.px_is)
        done)
  in
  Alcotest.(check (float 0.)) "words over 100,000 register accesses" 0.0 words

(* --- IDE --- *)

type ide_rig = {
  isim : Sim.t;
  pio : Pio.t;
  iirq : Irq.t;
  ide : Ide.t;
  idisk : Disk.t;
  idma : Dma.t;
}

let ide_rig () =
  let isim = Sim.create () in
  let pio = Pio.create () in
  let iirq = Irq.create isim in
  let idma = Dma.create () in
  let idisk = Disk.create isim small_hdd in
  let ide =
    Ide.create isim ~pio ~cmd_base:0x1F0 ~bm_base:0xC000 ~ctrl_base:0x3F6
      ~dma:idma ~disk:idisk ~irq:iirq ~irq_vec:14
  in
  { isim; pio; iirq; ide; idisk; idma }

let ide_issue rig ~op ~lba ~count ~prdt_addr =
  let p = rig.pio in
  Pio.outp p 0xC004 prdt_addr;
  Pio.outp p (0x1F0 + Ide.Regs.seccount) (count land 0xFF);
  Pio.outp p (0x1F0 + Ide.Regs.lba0) (lba land 0xFF);
  Pio.outp p (0x1F0 + Ide.Regs.lba1) ((lba lsr 8) land 0xFF);
  Pio.outp p (0x1F0 + Ide.Regs.lba2) ((lba lsr 16) land 0xFF);
  Pio.outp p (0x1F0 + Ide.Regs.device) (0xE0 lor ((lba lsr 24) land 0x0F));
  Pio.outp p (0x1F0 + Ide.Regs.command)
    (if op = `Read then Ide.cmd_read_dma else Ide.cmd_write_dma);
  (* Start bus master; bit 3 = direction. *)
  Pio.outp p 0xC000 (0x01 lor if op = `Read then 0x08 else 0x00)

let test_ide_read_flow () =
  let rig = ide_rig () in
  Disk.poke rig.idisk ~lba:2000 ~count:4 (Content.image_sectors ~lba:2000 ~count:4);
  let buf = Dma.alloc rig.idma ~sectors:4 in
  let prdt_addr =
    Ide.register_prdt rig.ide [ { Ide.buf_addr = buf.Dma.addr; sectors = 4 } ]
  in
  let completed = ref false in
  Irq.register rig.iirq ~vec:14 (fun () ->
      (* ISR: read status, ack bus-master IRQ bit. *)
      ignore (Pio.inp rig.pio (0x1F0 + Ide.Regs.command) : int);
      Pio.outp rig.pio 0xC002 0x04;
      completed := true);
  ide_issue rig ~op:`Read ~lba:2000 ~count:4 ~prdt_addr;
  Sim.run rig.isim;
  check_bool "irq" true !completed;
  Alcotest.(check (array content_testable))
    "data" (Content.image_sectors ~lba:2000 ~count:4) buf.Dma.data

let test_ide_write_flow () =
  let rig = ide_rig () in
  let buf = Dma.alloc rig.idma ~sectors:2 in
  Dma.blit_to buf ~off:0 (Content.data_sectors ~count:2) ~src_off:0 ~count:2;
  let prdt_addr =
    Ide.register_prdt rig.ide [ { Ide.buf_addr = buf.Dma.addr; sectors = 2 } ]
  in
  ide_issue rig ~op:`Write ~lba:3000 ~count:2 ~prdt_addr;
  Sim.run rig.isim;
  Alcotest.(check (array view_testable))
    "disk data" (Array.map Content.view buf.Dma.data)
    (Disk.peek rig.idisk ~lba:3000 ~count:2)

let test_ide_busy_status () =
  let rig = ide_rig () in
  let buf = Dma.alloc rig.idma ~sectors:64 in
  let prdt_addr =
    Ide.register_prdt rig.ide [ { Ide.buf_addr = buf.Dma.addr; sectors = 64 } ]
  in
  ide_issue rig ~op:`Read ~lba:0 ~count:64 ~prdt_addr;
  (* Let the execute process start (status turns BSY at its first step). *)
  Sim.run ~until:(Time.us 1) rig.isim;
  let st = Pio.inp rig.pio (0x1F0 + Ide.Regs.command) in
  check_bool "busy" true (st land Ide.status_bsy <> 0);
  Sim.run rig.isim;
  let st = Pio.inp rig.pio (0x1F0 + Ide.Regs.command) in
  check_bool "ready after" true (st land Ide.status_drdy <> 0);
  check_bool "not busy" true (st land Ide.status_bsy = 0)

let test_ide_nien_suppresses_irq () =
  let rig = ide_rig () in
  Pio.outp rig.pio 0x3F6 Ide.ctrl_nien;
  let buf = Dma.alloc rig.idma ~sectors:1 in
  let prdt_addr =
    Ide.register_prdt rig.ide [ { Ide.buf_addr = buf.Dma.addr; sectors = 1 } ]
  in
  let fired = ref false in
  Irq.register rig.iirq ~vec:14 (fun () -> fired := true);
  ide_issue rig ~op:`Read ~lba:0 ~count:1 ~prdt_addr;
  Sim.run rig.isim;
  check_bool "suppressed" false !fired;
  check_int "completed anyway" 1 (Ide.commands_processed rig.ide);
  (* Polling path: bus-master status shows the IRQ bit. *)
  check_bool "bm irq bit" true (Pio.inp rig.pio 0xC002 land 0x04 <> 0)

(* One registered table serves command after command, rewritten in
   place; only registered addresses can be rewritten. *)
let test_ide_prdt_rewrite () =
  let rig = ide_rig () in
  Disk.poke rig.idisk ~lba:0 ~count:4 (Content.image_sectors ~lba:0 ~count:4);
  let prdt_addr = Ide.register_prdt rig.ide [] in
  let read lba =
    let buf = Dma.alloc rig.idma ~sectors:1 in
    Ide.set_prdt rig.ide ~addr:prdt_addr
      [ { Ide.buf_addr = buf.Dma.addr; sectors = 1 } ];
    ide_issue rig ~op:`Read ~lba ~count:1 ~prdt_addr;
    Sim.run rig.isim;
    Pio.outp rig.pio 0xC002 0x04;
    buf.Dma.data.(0)
  in
  Alcotest.check content_testable "first" (Content.image 1) (read 1);
  Alcotest.check content_testable "second" (Content.image 3) (read 3);
  List.iter
    (fun (what, addr) ->
      check_bool what true
        (match Ide.set_prdt rig.ide ~addr [] with
        | () -> false
        | exception Invalid_argument _ -> true))
    [ ("unregistered rejected", prdt_addr + 0x100);
      ("unaligned rejected", prdt_addr + 0x80) ]

let test_ide_lba_assembly () =
  (* Needs an LBA above 2^24 so the device-register nibble is exercised;
     use a big disk. *)
  let isim = Sim.create () in
  let pio = Pio.create () in
  let iirq = Irq.create isim in
  let idma = Dma.create () in
  let idisk = Disk.create isim Disk.hdd_constellation2 in
  let ide =
    Ide.create isim ~pio ~cmd_base:0x1F0 ~bm_base:0xC000 ~ctrl_base:0x3F6
      ~dma:idma ~disk:idisk ~irq:iirq ~irq_vec:14
  in
  let rig = { isim; pio; iirq; ide; idisk; idma } in
  let lba = 0x0A1B2C3 lor (0x5 lsl 24) in
  Disk.poke rig.idisk ~lba ~count:1 [| Content.image 42 |];
  let buf = Dma.alloc rig.idma ~sectors:1 in
  let prdt_addr =
    Ide.register_prdt rig.ide [ { Ide.buf_addr = buf.Dma.addr; sectors = 1 } ]
  in
  ide_issue rig ~op:`Read ~lba ~count:1 ~prdt_addr;
  Sim.run rig.isim;
  Alcotest.check content_testable "28-bit lba decoded" (Content.image 42)
    buf.Dma.data.(0)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "storage"
    [ ( "content",
        [ tc "equal" `Quick test_content_equal;
          tc "constructors" `Quick test_content_constructors;
          tc "scratch pool reuse" `Quick test_content_scratch_reuse;
          QCheck_alcotest.to_alcotest prop_scratch_contract;
          QCheck_alcotest.to_alcotest prop_content_view_roundtrip;
          QCheck_alcotest.to_alcotest prop_content_out_of_range_raises;
          QCheck_alcotest.to_alcotest prop_content_blit_fill_match_array ] );
      ( "extent_map",
        [ tc "set get" `Quick test_extent_set_get;
          tc "overwrite splits" `Quick test_extent_overwrite_splits;
          tc "merge adjacent" `Quick test_extent_merge_adjacent;
          tc "clear range" `Quick test_extent_clear_range;
          tc "iter range" `Quick test_extent_iter_range;
          QCheck_alcotest.to_alcotest prop_extent_matches_reference;
          QCheck_alcotest.to_alcotest prop_extent_clear_matches_reference;
          QCheck_alcotest.to_alcotest prop_extent_covered_range_matches_reference;
          QCheck_alcotest.to_alcotest prop_extent_insert_query_roundtrip;
          QCheck_alcotest.to_alcotest prop_extent_coalesced;
          QCheck_alcotest.to_alcotest prop_extent_iter_tiles_exactly;
          QCheck_alcotest.to_alcotest prop_extent_iter_window ] );
      ( "dma",
        [ tc "alloc find" `Quick test_dma_alloc_find;
          tc "distinct addresses" `Quick test_dma_distinct_addresses;
          tc "read write bounds" `Quick test_dma_read_write_bounds;
          tc "free" `Quick test_dma_free ] );
      ( "disk",
        [ tc "poke peek roundtrip" `Quick test_disk_poke_peek_roundtrip;
          tc "poke writes its count" `Quick test_disk_poke_buffer_window;
          tc "mixed content runs" `Quick test_disk_mixed_content_runs;
          QCheck_alcotest.to_alcotest prop_disk_poke_peek;
          tc "sequential faster" `Quick test_disk_sequential_faster_than_random;
          tc "sequential rate calibration" `Quick test_disk_sequential_rate_calibration;
          tc "cache hit fast" `Quick test_disk_cache_hit_fast;
          tc "write no cache hit" `Quick test_disk_write_no_cache_hit;
          tc "stats" `Quick test_disk_stats;
          tc "fill with image" `Quick test_disk_fill_with_image;
          tc "bounds" `Quick test_disk_bounds;
          tc "ssd uniform latency" `Quick test_ssd_no_seek_penalty ] );
      ( "memory",
        [ tc "peek_into allocates no block per sector" `Quick
            test_peek_into_allocates_no_sector_block;
          tc "poke words per call" `Quick test_poke_allocation;
          tc "peek_into words per call" `Quick test_peek_into_allocation;
          tc "ahci registers allocate nothing" `Quick
            test_ahci_registers_allocate_nothing ] );
      ( "ahci",
        [ tc "read flow" `Quick test_ahci_read_flow;
          tc "write flow" `Quick test_ahci_write_flow;
          tc "busy while serving" `Quick test_ahci_busy_while_serving;
          tc "irq masked" `Quick test_ahci_no_irq_when_masked;
          tc "issue while stopped" `Quick test_ahci_issue_while_stopped_rejected;
          tc "multi slot fifo" `Quick test_ahci_multi_slot_fifo;
          tc "mediator rewrite trick" `Quick test_ahci_mediator_can_rewrite_command;
          tc "structure lookup" `Quick test_ahci_structure_lookup ] );
      ( "ide",
        [ tc "read flow" `Quick test_ide_read_flow;
          tc "write flow" `Quick test_ide_write_flow;
          tc "busy status" `Quick test_ide_busy_status;
          tc "nien suppresses irq" `Quick test_ide_nien_suppresses_irq;
          tc "lba assembly" `Quick test_ide_lba_assembly;
          tc "prdt rewrite" `Quick test_ide_prdt_rewrite ] ) ]
