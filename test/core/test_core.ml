(* Integration tests for the BMcast core: full deployments through the
   register-level driver/mediator/controller/disk/AoE stack. *)

module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Signal = Bmcast_engine.Signal
module Mmio = Bmcast_hw.Mmio
module Pio = Bmcast_hw.Pio
module Cpu = Bmcast_hw.Cpu
module Memmap = Bmcast_hw.Memmap
module Content = Bmcast_storage.Content
module Disk = Bmcast_storage.Disk
module Fabric = Bmcast_net.Fabric
module Vblade = Bmcast_proto.Vblade
module Machine = Bmcast_platform.Machine
module Runtime = Bmcast_platform.Runtime
module Block_io = Bmcast_guest.Block_io
module Params = Bmcast_core.Params
module Bitmap = Bmcast_core.Bitmap
module Vmm = Bmcast_core.Vmm
module Background_copy = Bmcast_core.Background_copy

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* --- Bitmap unit tests --- *)

let test_bitmap_basics () =
  let b = Bitmap.create ~sectors:100 in
  check_bool "empty" false (Bitmap.is_filled b 5);
  check_bool "first set wins" true (Bitmap.set_filled b 5);
  check_bool "second set loses" false (Bitmap.set_filled b 5);
  check_int "count" 1 (Bitmap.filled_count b);
  check_int "range fill" 9 (Bitmap.fill_range b ~lba:0 ~count:10);
  check_bool "not complete" false (Bitmap.is_complete b);
  ignore (Bitmap.fill_range b ~lba:10 ~count:90 : int);
  check_bool "complete" true (Bitmap.is_complete b)

let test_bitmap_empty_subranges () =
  let b = Bitmap.create ~sectors:20 in
  ignore (Bitmap.fill_range b ~lba:5 ~count:5 : int);
  Alcotest.(check (list (pair int int)))
    "subranges" [ (0, 5); (10, 10) ]
    (Bitmap.empty_subranges b ~lba:0 ~count:20);
  Alcotest.(check (list (pair int int)))
    "all filled" []
    (Bitmap.empty_subranges b ~lba:5 ~count:5)

let test_bitmap_find_empty_run () =
  let b = Bitmap.create ~sectors:100 in
  ignore (Bitmap.fill_range b ~lba:0 ~count:50 : int);
  (match Bitmap.find_empty_run b ~from:0 ~max:30 with
  | Some (50, 30) -> ()
  | Some (l, c) -> Alcotest.failf "got (%d,%d)" l c
  | None -> Alcotest.fail "none");
  (* Wrapping search. *)
  ignore (Bitmap.fill_range b ~lba:50 ~count:49 : int);
  (match Bitmap.find_empty_run b ~from:80 ~max:10 with
  | Some (99, 1) -> ()
  | Some (l, c) -> Alcotest.failf "wrap got (%d,%d)" l c
  | None -> Alcotest.fail "none");
  ignore (Bitmap.set_filled b 99 : bool);
  check_bool "complete -> none" true (Bitmap.find_empty_run b ~from:0 ~max:10 = None)

let test_bitmap_serialization () =
  let b = Bitmap.create ~sectors:77 in
  ignore (Bitmap.fill_range b ~lba:3 ~count:20 : int);
  let b2 = Bitmap.of_bytes ~sectors:77 (Bitmap.to_bytes b) in
  check_int "filled preserved" (Bitmap.filled_count b) (Bitmap.filled_count b2);
  for i = 0 to 76 do
    check_bool "bit preserved" (Bitmap.is_filled b i) (Bitmap.is_filled b2 i)
  done

let prop_bitmap_fill_count_consistent =
  QCheck.Test.make ~name:"bitmap filled_count matches bits" ~count:100
    QCheck.(list (pair (int_bound 90) (int_range 1 10)))
    (fun ranges ->
      let b = Bitmap.create ~sectors:100 in
      List.iter
        (fun (lba, count) ->
          let count = min count (100 - lba) in
          if count > 0 then ignore (Bitmap.fill_range b ~lba ~count : int))
        ranges;
      let expect = ref 0 in
      for i = 0 to 99 do
        if Bitmap.is_filled b i then incr expect
      done;
      !expect = Bitmap.filled_count b)

(* --- Word-at-a-time scans vs a bit-serial reference --- *)

(* The per-sector loops the word scans and the byte-wise fill replaced,
   written over the public [is_filled] and [set_filled]. *)
let ref_empty_subranges b ~lba ~count =
  let acc = ref [] in
  let run_start = ref (-1) in
  for i = lba to lba + count - 1 do
    if not (Bitmap.is_filled b i) then begin
      if !run_start < 0 then run_start := i
    end
    else if !run_start >= 0 then begin
      acc := (!run_start, i - !run_start) :: !acc;
      run_start := -1
    end
  done;
  if !run_start >= 0 then acc := (!run_start, lba + count - !run_start) :: !acc;
  List.rev !acc

let ref_find_empty_run b ~from ~max =
  let n = Bitmap.sectors b in
  if Bitmap.is_complete b then None
  else begin
    let from = if from < 0 || from >= n then 0 else from in
    let rec first i limit =
      if i >= limit then -1
      else if not (Bitmap.is_filled b i) then i
      else first (i + 1) limit
    in
    let start = match first from n with -1 -> first 0 from | s -> s in
    let len = ref 1 in
    while
      !len < max && start + !len < n && not (Bitmap.is_filled b (start + !len))
    do
      incr len
    done;
    Some (start, !len)
  end

let ref_fill_range b ~lba ~count =
  let newly = ref 0 in
  for i = lba to lba + count - 1 do
    if Bitmap.set_filled b i then incr newly
  done;
  !newly

(* Results and bounds-check failures compare alike. *)
let outcome f =
  match f () with v -> Ok v | exception Invalid_argument m -> Error m

(* The empty runs of [lba, lba + count) walked with the two seeks, as
   [Mediator.vmm_write_empty] walks them. *)
let seek_runs b ~lba ~count =
  let limit = lba + count in
  let rec go from acc =
    let s = Bitmap.next_empty b ~from ~limit in
    if s >= limit then List.rev acc
    else
      let e = Bitmap.next_filled b ~from:(s + 1) ~limit in
      go e ((s, e - s) :: acc)
  in
  go lba []

(* What the walk must find: the runs of the window's part inside the
   map, as the mediator clipped its window to the image before. *)
let ref_runs_in_map b ~lba ~count =
  let n = Bitmap.sectors b in
  if lba >= n then [] else ref_empty_subranges b ~lba ~count:(min count (n - lba))

type fill = Empty | Sparse | Dense | Runs | Complete

let fill_name = function
  | Empty -> "empty"
  | Sparse -> "sparse"
  | Dense -> "dense"
  | Runs -> "runs"
  | Complete -> "complete"

(* A map of [sectors] filled per [fill], drawn from [seed]. *)
let make_filled ~sectors fill seed =
  let b = Bitmap.create ~sectors in
  let st = Random.State.make [| seed |] in
  let each p =
    for i = 0 to sectors - 1 do
      if Random.State.float st 1.0 < p then
        ignore (Bitmap.set_filled b i : bool)
    done
  in
  (match fill with
  | Empty -> ()
  | Sparse -> each 0.03
  | Dense -> each 0.97
  | Complete -> ignore (Bitmap.fill_range b ~lba:0 ~count:sectors : int)
  | Runs ->
    (* Alternating empty and filled runs of 1-200 sectors. *)
    let i = ref (Random.State.int st 100) in
    while !i < sectors do
      let len = min (1 + Random.State.int st 200) (sectors - !i) in
      ignore (Bitmap.fill_range b ~lba:!i ~count:len : int);
      i := !i + len + 1 + Random.State.int st 200
    done);
  b

let gen_scan_case =
  QCheck.Gen.(
    let* sectors =
      oneof
        [ int_range 1 200;
          int_range 1 5000;
          map (fun k -> 64 * k) (int_range 1 78);
          map (fun k -> (8 * k) + 3) (int_range 0 600) ]
    in
    let* fill = oneofl [ Empty; Sparse; Dense; Runs; Complete ] in
    let* seed = int_bound 1_000_000 in
    let* queries =
      list_size (int_range 1 20)
        (quad
           (int_range (-5) (sectors + 5))
           (int_range (-2) 700)
           (int_range (-2) (sectors + 2))
           (frequencyl [ (3, false); (1, true) ]))
    in
    return (sectors, fill, seed, queries))

let print_scan_case (sectors, fill, seed, queries) =
  Printf.sprintf "sectors=%d fill=%s seed=%d queries=[%s]" sectors
    (fill_name fill) seed
    (String.concat "; "
       (List.map
          (fun (a, m, c, f) ->
            Printf.sprintf "(%d,%d,%d%s)" a m c (if f then ",fill" else ""))
          queries))

(* Each query [(a, m, c, f)] asks [find_empty_run ~from:a ~max:m] and
   scans [c] sectors from [a] (out-of-range ranges included, so the
   bounds checks are compared too); when [f], it then fills those [c]
   sectors, and a second map loaded from the same bytes is filled
   sector by sector: the newly filled counts, [filled_count] and the
   bits must agree. *)
let prop_bitmap_scans_match_reference =
  QCheck.Test.make ~name:"bitmap word scans match the bit-serial reference"
    ~count:1000
    (QCheck.make ~print:print_scan_case gen_scan_case)
    (fun (sectors, fill, seed, queries) ->
      let b = make_filled ~sectors fill seed in
      let r = Bitmap.of_bytes ~sectors (Bitmap.to_bytes b) in
      List.for_all
        (fun (a, m, c, f) ->
          Bitmap.find_empty_run b ~from:a ~max:m
          = ref_find_empty_run b ~from:a ~max:m
          && (let expect =
                outcome (fun () -> ref_empty_subranges b ~lba:a ~count:c)
              in
              outcome (fun () -> Bitmap.empty_subranges b ~lba:a ~count:c)
              = expect
              && outcome (fun () -> Bitmap.range_filled b ~lba:a ~count:c)
                 = Result.map (fun runs -> runs = []) expect)
          && outcome (fun () -> seek_runs b ~lba:a ~count:c)
             = outcome (fun () -> ref_runs_in_map b ~lba:a ~count:c)
          && ((not f)
             || outcome (fun () -> Bitmap.fill_range b ~lba:a ~count:c)
                = outcome (fun () -> ref_fill_range r ~lba:a ~count:c)
                && Bitmap.filled_count b = Bitmap.filled_count r
                && Bytes.equal (Bitmap.to_bytes b) (Bitmap.to_bytes r)))
        queries)

(* A loaded map whose padding bits past [sectors] are all set: the
   padding is not counted, and every run stays inside the map and
   matches the reference. *)
let test_bitmap_scans_ignore_padding () =
  List.iter
    (fun sectors ->
      List.iter
        (fun fill ->
          let src = make_filled ~sectors fill sectors in
          let raw = Bitmap.to_bytes src in
          let last = Bytes.length raw - 1 in
          let used = sectors - (8 * last) in
          let padding = (0xff lsl used) land 0xff in
          Bytes.set raw last
            (Char.chr (Char.code (Bytes.get raw last) lor padding));
          let b = Bitmap.of_bytes ~sectors raw in
          check_int "padding not counted" (Bitmap.filled_count src)
            (Bitmap.filled_count b);
          for from = 0 to sectors - 1 do
            List.iter
              (fun max ->
                match Bitmap.find_empty_run b ~from ~max with
                | None ->
                  check_bool "only when complete" true (Bitmap.is_complete b)
                | Some (lba, count) as run ->
                  check_bool "run inside the map" true (lba + count <= sectors);
                  check_bool "run matches reference" true
                    (run = ref_find_empty_run b ~from ~max))
              [ 1; 2; 9; 64; 700 ]
          done;
          Alcotest.(check (list (pair int int)))
            "subranges match reference"
            (ref_empty_subranges b ~lba:0 ~count:sectors)
            (Bitmap.empty_subranges b ~lba:0 ~count:sectors);
          let empty = sectors - Bitmap.filled_count b in
          check_int "fill counts no padding" empty
            (Bitmap.fill_range b ~lba:0 ~count:sectors);
          check_bool "complete" true (Bitmap.is_complete b))
        [ Empty; Sparse; Runs; Complete ])
    [ 1; 5; 63; 65; 100; 127; 129; 191; 1001 ]

let test_bitmap_range_filled_allocates_nothing () =
  let sectors = 2 * 1024 * 1024 in
  let b = Bitmap.create ~sectors in
  ignore (Bitmap.fill_range b ~lba:0 ~count:sectors : int);
  let before = Gc.minor_words () in
  let filled = Bitmap.range_filled b ~lba:0 ~count:sectors in
  let words = Gc.minor_words () -. before in
  check_bool "filled" true filled;
  Alcotest.(check (float 0.0)) "minor words" 0.0 words

(* --- Full-stack deployment rig --- *)

type rig = {
  sim : Sim.t;
  fabric : Fabric.t;
  machine : Machine.t;
  server_disk : Disk.t;
  vblade : Vblade.t;
  params : Params.t;
}

(* Small disks so tests run fast: a 64 MB image on a 256 MB disk. *)
let image_sectors = 64 * 2048
let test_disk_profile =
  { Disk.hdd_constellation2 with Disk.capacity_sectors = 256 * 2048 }

let make_rig ?(disk_kind = Machine.Ahci_disk) ?(write_interval = Time.ms 2)
    ?(loss = 0.0) ?metrics () =
  let sim = Sim.create ?metrics () in
  let fabric = Fabric.create sim ~loss_rate:loss () in
  let server_disk = Disk.create sim test_disk_profile in
  Disk.fill_with_image server_disk;
  let vblade =
    Vblade.create sim ~fabric ~name:"server" ~disk:server_disk ()
  in
  let machine =
    Machine.create sim ~name:"node0" ~disk_profile:test_disk_profile
      ~disk_kind ~fabric ()
  in
  let params =
    { (Params.default ~image_sectors) with Params.write_interval }
  in
  { sim; fabric; machine; server_disk; vblade; params }

(* --- VMM commands through a mediator --- *)

module Mediator = Bmcast_core.Mediator
module Dma = Bmcast_storage.Dma

(* A machine whose controller a mediator interposes, the guest driver
   attached (AHCI's VMM commands need the port it starts); [f] runs in
   a process once VMM commands may use the device. *)
let with_mediator ?(image = image_sectors) disk_kind f =
  let sim = Sim.create () in
  let fabric = Fabric.create sim () in
  let machine =
    Machine.create sim ~name:"node0" ~disk_profile:test_disk_profile
      ~disk_kind ~fabric ()
  in
  Disk.fill_with_image machine.Machine.disk;
  let params = Params.default ~image_sectors:image in
  let bitmap = Bitmap.create ~sectors:image in
  let aoe = Bmcast_proto.Aoe_client.create sim ~send:(fun _ _ -> ()) () in
  let m =
    match machine.Machine.controller with
    | Machine.Ahci a ->
      Bmcast_core.Ahci_mediator.attach machine a ~aoe ~bitmap ~params
    | Machine.Ide i ->
      Bmcast_core.Ide_mediator.attach machine i ~aoe ~bitmap ~params
  in
  Sim.spawn_at sim ~name:"scenario" Time.zero (fun () ->
      let blk = Block_io.attach machine in
      Mediator.wait_device_ready m;
      f machine m bitmap blk);
  Sim.run sim

(* A VMM read lands by DMA in the caller's array (bound to it while the
   command is in flight), and after every VMM command the mediator's
   buffer is unbound, so the DMA registry reaches no caller array. *)
let test_vmm_commands_bind_caller_array disk_kind () =
  with_mediator disk_kind (fun machine m bitmap _ ->
      let dma = machine.Machine.dma and disk = machine.Machine.disk in
      let unbound what =
        match Dma.find dma ~addr:(Mediator.dma_addr m) with
        | _ -> Alcotest.failf "%s: the DMA buffer is still bound" what
        | exception Invalid_argument _ -> ()
      in
      let count = 300 and pos = 5 in
      let dst = Content.zeroes ~count:(count + 10) in
      let seen = ref false in
      Sim.spawn ~name:"probe" (fun () ->
          Sim.sleep (Time.us 1);
          seen := (Dma.find dma ~addr:(Mediator.dma_addr m)).Dma.data == dst);
      Mediator.vmm_read m ~lba:1000 ~count dst ~pos;
      check_bool "bound to the caller's array in flight" true !seen;
      for i = 0 to count - 1 do
        if not (Content.equal dst.(pos + i) (Content.image (1000 + i))) then
          Alcotest.failf "sector %d not read into the caller's array" i
      done;
      check_bool "nothing before the window" true
        (Content.equal dst.(pos - 1) Content.zero);
      check_bool "nothing after the window" true
        (Content.equal dst.(pos + count) Content.zero);
      unbound "after vmm_read";
      let data = Content.data_sectors ~count:40 in
      Mediator.vmm_write m ~lba:2000 ~count:40 data;
      check_bool "vmm_write landed" true
        (Content.equal (Disk.sector disk 2039) data.(39));
      unbound "after vmm_write";
      ignore (Bitmap.fill_range bitmap ~lba:3010 ~count:5 : int);
      check_int "write-if-empty skips the filled run" 35
        (Mediator.vmm_write_empty m ~lba:3000 ~count:40 data ~pos:0);
      check_bool "empty run written" true
        (Content.equal (Disk.sector disk 3000) data.(0));
      check_bool "filled run kept" true
        (Content.equal (Disk.sector disk 3010) (Content.image 3010));
      unbound "after vmm_write_empty")

(* IDE splits a 300-sector read into 256 + 44 sectors; the disk caches
   only the second command, so the dummy read a protected-region access
   turns into must target its first sector to hit the cache instead of
   seeking. *)
let test_ide_vmm_read_cache_hint () =
  with_mediator Machine.Ide_disk (fun machine m _ blk ->
      let disk = machine.Machine.disk in
      Mediator.set_protected_region m ~lba:100_000 ~count:8;
      Mediator.vmm_read m ~lba:4096 ~count:300 (Content.zeroes ~count:300)
        ~pos:0;
      let seeks = Disk.seeks disk in
      ignore (Block_io.read blk ~lba:100_000 ~count:1 : Content.t array);
      check_int "the dummy read hits the disk cache" seeks (Disk.seeks disk))

(* --- memory --- *)

(* Words per 17-sector write-if-empty fill of an empty run (a carousel
   frame's worth), over 10,000 fills after 1,000 warm-up ones. The data
   are the image sectors the disk already holds, so its extents stay
   put. *)
let words_per_fill disk_kind =
  let count = 17 and fills = 11_000 in
  let words = ref 0.0 in
  with_mediator ~image:(count * fills) disk_kind (fun _ m _ _ ->
      let data = Content.zeroes ~count in
      let run first n =
        for i = first to first + n - 1 do
          let lba = i * count in
          for j = 0 to count - 1 do
            data.(j) <- Content.image (lba + j)
          done;
          ignore (Mediator.vmm_write_empty m ~lba ~count data ~pos:0 : int)
        done
      in
      run 0 1_000;
      words := Alloc.allocated_words (fun () -> run 1_000 10_000) /. 10_000.0);
  !words

(* A fill may allocate only the continuations of the processes it
   suspends: the mediator's adaptive sleep and polls and the device's
   own sleeps and waits (the IDE command executor's start too). *)
let test_fill_memory disk_kind bound () =
  let words = words_per_fill disk_kind in
  check_bool
    (Printf.sprintf "%.1f words per 17-sector fill, at most %.0f" words bound)
    true (words <= bound)

(* Words per chunk of a background copy of a 20-chunk image on a
   mediated AHCI machine. Its fetch fills the chunk in place with the
   image sectors the disk already holds, so the disk's extents stay put,
   and it writes through the real write-if-empty. The scratch pool is
   warmed first with as many chunk arrays as the copy keeps in flight
   (its FIFO's 8, the retriever's and the writer's). *)
let words_per_chunk () =
  let chunks = 20 and chunk = 6144 in
  let words = ref 0.0 in
  with_mediator ~image:(chunk * chunks) Machine.Ahci_disk
    (fun machine m bitmap _ ->
      let params = Params.default ~image_sectors:(chunk * chunks) in
      check_int "chunk size" chunk params.Params.chunk_sectors;
      List.iter Content.Scratch.release
        (List.init 10 (fun _ -> Content.Scratch.alloc chunk));
      (* One chunk-sized write past the image primes the mediator's
         polling estimate, as earlier chunks would. *)
      let past = chunk * chunks in
      Mediator.vmm_write m ~lba:past ~count:chunk
        (Content.image_sectors ~lba:past ~count:chunk);
      let ops =
        { Background_copy.fetch =
            (fun ~lba ~count dst ->
              Content.fill_run dst 0 count
                ~run:(Content.run_of (Content.image lba) ~pos:0)
                ~pos:0);
          write_empty =
            (fun ~lba ~count data ->
              Mediator.vmm_write_empty m ~lba ~count data ~pos:0);
          guest_io_rate = (fun () -> Mediator.guest_io_rate m);
          redirect_active = (fun () -> Mediator.redirect_active m);
          guest_last_lba = (fun () -> None) }
      in
      let bg =
        Background_copy.start machine.Machine.sim ~params ~bitmap ~ops ()
      in
      words :=
        Alloc.allocated_words (fun () -> Background_copy.wait_complete bg)
        /. float_of_int chunks;
      check_int "copied" (chunk * chunks * 512)
        (Background_copy.bytes_written bg));
  !words

(* A chunk may allocate its bookkeeping (the FIFO entry, the in-flight
   list, the run search's result) and the continuations of the polls
   and sleeps it suspends in, but no sector array: a fresh chunk array
   is 6,145 words. It reads 1,025.9; the bound is 1.5 times that. *)
let test_copy_memory () =
  let words = words_per_chunk () in
  check_bool
    (Printf.sprintf "%.1f words per 6,144-sector chunk, at most 1540" words)
    true (words <= 1540.0)

(* Boot the VMM, attach the guest driver, return everything. *)
let deploy_and ?(disk_kind = Machine.Ahci_disk) ?write_interval
    ?(release_memory = false) (guest : Vmm.t -> Block_io.t -> unit) =
  let rig = make_rig ~disk_kind ?write_interval () in
  let vmm_ref = ref None in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ~release_memory ()
      in
      vmm_ref := Some vmm;
      let blk = Block_io.attach rig.machine in
      guest vmm blk);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  (rig, Option.get !vmm_ref)

let content_ok ~disk ~lba ~count =
  Array.for_all2 ( = )
    (Disk.peek disk ~lba ~count)
    (Array.map Content.view (Content.image_sectors ~lba ~count))

(* --- copy-on-read --- *)

let test_copy_on_read_returns_image_data () =
  let got = ref [||] in
  let rig, vmm =
    deploy_and (fun _vmm blk -> got := Block_io.read blk ~lba:1000 ~count:64)
  in
  ignore vmm;
  check_bool "data is image content" true
    (Array.for_all2 Content.equal !got (Content.image_sectors ~lba:1000 ~count:64));
  (* Write-back: the local disk now holds those sectors. *)
  check_bool "written back locally" true
    (content_ok ~disk:rig.machine.Machine.disk ~lba:1000 ~count:64)

let test_cold_read_redirects_warm_does_not () =
  (* Read near the end of the image (the ascending background copy has
     not arrived): the first read must be served by redirection; after
     its write-back lands, re-reading the same blocks is a local
     pass-through (no new redirect). *)
  let lba = image_sectors - 2048 in
  let redirects = ref (-1, -1) in
  let _rig, _vmm =
    deploy_and (fun vmm blk ->
        ignore (Block_io.read blk ~lba ~count:64 : Content.t array);
        let after_cold = (Vmm.totals vmm).Vmm.redirects in
        (* Let the asynchronous write-back land before re-reading. *)
        Sim.sleep (Time.ms 200);
        ignore (Block_io.read blk ~lba ~count:64 : Content.t array);
        redirects := (after_cold, (Vmm.totals vmm).Vmm.redirects))
  in
  let after_cold, after_warm = !redirects in
  check_int "cold read redirected" 1 after_cold;
  check_int "warm read local" after_cold after_warm

let test_guest_write_passthrough () =
  let payload = Content.data_sectors ~count:32 in
  let rig, _vmm =
    deploy_and (fun _vmm blk ->
        Block_io.write blk ~lba:2000 ~count:32 payload)
  in
  check_bool "local disk holds guest data" true
    (Array.for_all2 ( = ) (Array.map Content.view payload)
       (Disk.peek rig.machine.Machine.disk ~lba:2000 ~count:32))

let test_mixed_read_assembles_correctly () =
  (* Write sectors 104..111, then read 100..119: the read must return
     guest data where written and image data elsewhere. *)
  let payload = Content.data_sectors ~count:8 in
  let got = ref [||] in
  let _rig, _vmm =
    deploy_and (fun _vmm blk ->
        Block_io.write blk ~lba:104 ~count:8 payload;
        got := Block_io.read blk ~lba:100 ~count:20)
  in
  let expect = Content.image_sectors ~lba:100 ~count:20 in
  Array.blit payload 0 expect 4 8;
  check_bool "assembled" true (Array.for_all2 Content.equal !got expect)

(* --- full deployment & de-virtualization --- *)

let test_full_deployment_completes () =
  let rig, vmm =
    deploy_and (fun vmm blk ->
        (* Touch the disk so the controller gets initialized, then wait
           out the deployment. *)
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        Vmm.wait_devirtualized vmm)
  in
  check_bool "deployed" true (Bitmap.is_complete (Vmm.bitmap vmm));
  check_bool "devirtualized" true (Vmm.devirtualized_at vmm <> None);
  check_bool "phase" true (Vmm.phase vmm = Runtime.Devirtualized);
  (* Every image sector equals the server copy. *)
  check_bool "disk equals image" true
    (content_ok ~disk:rig.machine.Machine.disk ~lba:0 ~count:image_sectors)

let test_devirt_zero_overhead () =
  let rig = make_rig () in
  let traps_after = ref (-1) and exits_after = ref (-1) in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      (* Post-devirt I/O must neither trap nor exit. *)
      let t0 = Mmio.trapped_accesses rig.machine.Machine.mmio in
      let e0 = Cpu.total_exits rig.machine.Machine.cpu in
      for i = 0 to 9 do
        ignore (Block_io.read blk ~lba:(i * 100) ~count:8 : Content.t array)
      done;
      Block_io.write blk ~lba:5 ~count:4 (Content.data_sectors ~count:4);
      traps_after := Mmio.trapped_accesses rig.machine.Machine.mmio - t0;
      exits_after := Cpu.total_exits rig.machine.Machine.cpu - e0);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  check_int "zero traps after devirt" 0 !traps_after;
  check_int "zero exits after devirt" 0 !exits_after

(* A real AHCI driver rewrites one command table per slot: after a
   whole deployment, the guest driver's slot 0 and the mediator's slot
   31 still point at the tables they were first given. *)
let test_ahci_command_tables_reused () =
  let module Ahci = Bmcast_storage.Ahci in
  let rig = make_rig () in
  let ahci =
    match rig.machine.Machine.controller with
    | Machine.Ahci a -> a
    | Machine.Ide _ -> assert false
  in
  let slot s =
    let clb = (Ahci.raw ahci).Mmio.read Ahci.Regs.px_clb in
    Ahci.slot_table_addr ahci ~clb ~slot:s
  in
  let first = ref None and last = ref None in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      let blk = Block_io.attach rig.machine in
      (* A cold read: its write-back is one of the mediator's first
         commands. *)
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Sim.sleep (Time.ms 200);
      first := Some (slot 0, slot 31);
      Block_io.write blk ~lba:5 ~count:4 (Content.data_sectors ~count:4);
      Vmm.wait_devirtualized vmm;
      last := Some (slot 0, slot 31));
  Sim.run ~until:(Time.minutes 30) rig.sim;
  match (!first, !last) with
  | Some (a0, a31), Some (b0, b31) ->
    check_int "slot 0 keeps its table" a0 b0;
    check_int "slot 31 keeps its table" a31 b31;
    check_bool "separate tables" true (a0 <> a31)
  | _ -> Alcotest.fail "deployment did not finish"

(* The IDE analogue: the guest driver programs the same PRD table for
   every command, and no table was registered after it — neither by the
   driver nor by the mediator's multiplexed commands. *)
let test_ide_prd_tables_reused () =
  let module Ide = Bmcast_storage.Ide in
  let rig = make_rig ~disk_kind:Machine.Ide_disk () in
  let ide =
    match rig.machine.Machine.controller with
    | Machine.Ide i -> i
    | Machine.Ahci _ -> assert false
  in
  let programmed = ref [] in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      (* Past de-virtualization the guest programs the device directly. *)
      for i = 0 to 1 do
        ignore (Block_io.read blk ~lba:(i * 64) ~count:8 : Content.t array);
        programmed := (Ide.raw_bm ide).Pio.inp Ide.Bm.prdt :: !programmed
      done);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  match !programmed with
  | [ second; first ] ->
    check_int "one table for the driver" first second;
    check_bool "none registered after it" true
      (match Ide.prdt ide ~addr:(first + 0x100) with
      | _ -> false
      | exception Invalid_argument _ -> true)
  | _ -> Alcotest.fail "deployment did not finish"

let test_deployment_progress_monotone () =
  let samples = ref [] in
  let _rig, vmm =
    deploy_and (fun vmm blk ->
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        Sim.spawn (fun () ->
            let rec sample () =
              if Vmm.devirtualized_at vmm = None then begin
                samples := Vmm.progress vmm :: !samples;
                Sim.sleep (Time.ms 200);
                sample ()
              end
            in
            sample ());
        Vmm.wait_devirtualized vmm)
  in
  let s = List.rev !samples in
  let rec mono = function
    | a :: (b :: _ as rest) -> a <= b && mono rest
    | _ -> true
  in
  check_bool "progress monotone" true (mono s);
  check_bool "progress sampled" true (List.length s > 2);
  check_bool "final progress 1.0" true (Vmm.progress vmm >= 1.0)

(* The §3.3 consistency property: a guest write racing the background
   copy is never clobbered by a stale server fill. *)
let test_guest_write_never_clobbered disk_kind () =
  let writes = ref [] in
  let rig, vmm =
    deploy_and ~disk_kind (fun vmm blk ->
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        (* Scatter writes across the image while the copy runs. *)
        let prng = Prng.create 99 in
        for _ = 0 to 63 do
          let lba = Prng.int prng (image_sectors - 8) in
          let data = Content.data_sectors ~count:8 in
          Block_io.write blk ~lba ~count:8 data;
          writes := (lba, data) :: !writes;
          Sim.sleep (Time.ms 20)
        done;
        Vmm.wait_devirtualized vmm)
  in
  ignore vmm;
  (* Later writes overwrite earlier overlapping ones; checking in write
     order with overlap tracking: verify each write's sectors hold
     either its own data or a later write's data. *)
  let disk = rig.machine.Machine.disk in
  let module IntMap = Map.Make (Int) in
  let final = ref IntMap.empty in
  List.iter
    (fun (lba, data) ->
      Array.iteri (fun i c -> final := IntMap.add (lba + i) c !final)
      data)
    (List.rev !writes);
  IntMap.iter
    (fun lba expect ->
      check_bool
        (Printf.sprintf "sector %d keeps guest data" lba)
        true
        (Content.equal (Disk.sector disk lba) expect))
    !final

let prop_random_workload_consistency disk_kind =
  QCheck.Test.make ~name:"random guest workloads end consistent" ~count:8
    QCheck.(int_bound 10_000)
    (fun seed ->
      let rig = make_rig ~disk_kind () in
      let module IntMap = Map.Make (Int) in
      let final = ref IntMap.empty in
      Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
          let vmm =
            Vmm.boot rig.machine ~params:rig.params
              ~server_port:(Vblade.port_id rig.vblade) ()
          in
          let blk = Block_io.attach rig.machine in
          let prng = Prng.create seed in
          for _ = 0 to 39 do
            let lba = Prng.int prng (image_sectors - 64) in
            let count = 1 + Prng.int prng 63 in
            if Prng.bool prng then begin
              let data = Content.data_sectors ~count in
              Block_io.write blk ~lba ~count data;
              Array.iteri (fun i c -> final := IntMap.add (lba + i) c !final) data
            end
            else
              ignore (Block_io.read blk ~lba ~count : Content.t array);
            Sim.sleep (Time.ms (1 + Prng.int prng 30))
          done;
          Vmm.wait_devirtualized vmm);
      Sim.run ~until:(Time.minutes 30) rig.sim;
      let disk = rig.machine.Machine.disk in
      let ok = ref true in
      for lba = 0 to image_sectors - 1 do
        let expect =
          match IntMap.find_opt lba !final with
          | Some c -> c
          | None -> Content.image lba
        in
        if not (Content.equal (Disk.sector disk lba) expect) then ok := false
      done;
      !ok)

(* --- pooled vs allocating observational equivalence ---

   The frame pool and scratch buffers are allocation mechanics only:
   under the same seed, a full deployment with pooling disabled must
   produce a byte-identical trace and identical VMM totals. Content
   tags come from a global counter, so disks are not comparable across
   two in-process runs — the trace and the counters are. *)
let pooled_run ~pool_frames ~seed =
  let tr = Bmcast_obs.Trace.create ~capacity:(1 lsl 16) () in
  let sim = Sim.create ~trace:tr () in
  let fabric = Fabric.create sim ~pool_frames () in
  let server_disk = Disk.create sim test_disk_profile in
  Disk.fill_with_image server_disk;
  let vblade =
    Vblade.create sim ~fabric ~name:"server" ~disk:server_disk ()
  in
  let machine =
    Machine.create sim ~name:"node0" ~disk_profile:test_disk_profile
      ~disk_kind:Machine.Ahci_disk ~fabric ()
  in
  let params = Params.default ~image_sectors in
  let totals = ref None in
  Sim.spawn_at sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot machine ~params ~server_port:(Vblade.port_id vblade) ()
      in
      let blk = Block_io.attach machine in
      let prng = Prng.create seed in
      for _ = 0 to 19 do
        let lba = Prng.int prng (image_sectors - 64) in
        let count = 1 + Prng.int prng 63 in
        if Prng.bool prng then
          Block_io.write blk ~lba ~count (Content.data_sectors ~count)
        else ignore (Block_io.read blk ~lba ~count : Content.t array);
        Sim.sleep (Time.ms (1 + Prng.int prng 20))
      done;
      Vmm.wait_devirtualized vmm;
      totals := Some (Vmm.totals vmm));
  Sim.run ~until:(Time.minutes 30) sim;
  (Bmcast_obs.Trace.to_jsonl tr, !totals)

let prop_pooling_observationally_identical =
  QCheck.Test.make ~name:"pooled paths identical to allocating paths"
    ~count:4
    QCheck.(int_bound 10_000)
    (fun seed ->
      let jsonl_pooled, totals_pooled = pooled_run ~pool_frames:true ~seed in
      let jsonl_alloc, totals_alloc = pooled_run ~pool_frames:false ~seed in
      totals_pooled <> None
      && totals_pooled = totals_alloc
      && String.length jsonl_pooled > 0
      && jsonl_pooled = jsonl_alloc)

(* A guest driver that queues two commands at once (NCQ-style): the
   mediator must track multiple ghost bits, redirect the cold slot and
   pass the warm slot through, and both must complete. *)
let test_multi_slot_guest_commands () =
  let rig = make_rig () in
  let outcome = ref None in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      ignore vmm;
      let ahci =
        match rig.machine.Machine.controller with
        | Machine.Ahci a -> a
        | Machine.Ide _ -> assert false
      in
      let module Ahci = Bmcast_storage.Ahci in
      let module Dma = Bmcast_storage.Dma in
      let mmio = rig.machine.Machine.mmio in
      let reg off = Mmio.read mmio (Machine.ahci_base + off) in
      let wreg off v = Mmio.write mmio (Machine.ahci_base + off) v in
      (* Minimal guest driver init. *)
      let clb = Ahci.alloc_cmd_list ahci in
      wreg Ahci.Regs.px_clb clb;
      wreg Ahci.Regs.px_ie 1;
      wreg Ahci.Regs.px_cmd 1;
      (* Slot 0: cold read near the end of the image (will redirect).
         Slot 1: a fresh-region read beyond the image (pass-through). *)
      let buf0 = Dma.alloc rig.machine.Machine.dma ~sectors:16 in
      let buf1 = Dma.alloc rig.machine.Machine.dma ~sectors:16 in
      let t0 =
        Ahci.alloc_cmd_table ahci ~op:Ahci.Read ~lba:(image_sectors - 64)
          ~count:16
          [ { Ahci.buf_addr = buf0.Dma.addr; sectors = 16 } ]
      and t1 =
        Ahci.alloc_cmd_table ahci ~op:Ahci.Read ~lba:(image_sectors + 4096)
          ~count:16
          [ { Ahci.buf_addr = buf1.Dma.addr; sectors = 16 } ]
      in
      Ahci.set_slot ahci ~clb ~slot:0 ~table_addr:t0;
      Ahci.set_slot ahci ~clb ~slot:1 ~table_addr:t1;
      wreg Ahci.Regs.px_ci 3;
      (* Immediately after issue, the guest must see both bits pending
         (one real, one ghost). *)
      let ci_after = reg Ahci.Regs.px_ci in
      (* Wait for both to drain from the guest's view. *)
      while reg Ahci.Regs.px_ci <> 0 do
        Sim.sleep (Time.ms 1)
      done;
      outcome := Some (ci_after, Array.copy buf0.Dma.data));
  Sim.run ~until:(Time.minutes 5) rig.sim;
  match !outcome with
  | None -> Alcotest.fail "scenario did not finish"
  | Some (ci_after, cold_data) ->
    check_int "both slots pending after issue" 3 ci_after;
    check_bool "cold slot got image data" true
      (Array.for_all2 Content.equal cold_data
         (Content.image_sectors ~lba:(image_sectors - 64) ~count:16))

let test_deployment_survives_packet_loss () =
  (* 2% frame loss on the management network: retransmission keeps the
     deployment correct (just slower). *)
  let rig = make_rig ~loss:0.02 () in
  let vmm_ref = ref None in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      vmm_ref := Some vmm;
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  let vmm = Option.get !vmm_ref in
  check_bool "deployed despite loss" true (Bitmap.is_complete (Vmm.bitmap vmm));
  check_bool "retransmissions happened" true
    ((Vmm.totals vmm).Vmm.aoe_retransmits > 0);
  check_bool "disk equals image" true
    (content_ok ~disk:rig.machine.Machine.disk ~lba:0 ~count:image_sectors)

(* --- moderation --- *)

let test_moderation_suspends_under_load () =
  (* Progress after a fixed horizon must be smaller when the guest
     hammers the disk, because the writer backs off. *)
  let progress_with guest_load =
    let rig = make_rig ~write_interval:(Time.ms 5) () in
    let vmm_ref = ref None in
    Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
        let vmm =
          Vmm.boot rig.machine ~params:rig.params
            ~server_port:(Vblade.port_id rig.vblade) ()
        in
        vmm_ref := Some vmm;
        let blk = Block_io.attach rig.machine in
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        if guest_load then
          let rec hammer i =
            ignore (Block_io.read blk ~lba:(i * 16 mod image_sectors) ~count:8
                    : Content.t array);
            hammer (i + 1)
          in
          hammer 0);
    Sim.run ~until:(Time.s 20) rig.sim;
    Vmm.progress (Option.get !vmm_ref)
  in
  let idle = progress_with false and busy = progress_with true in
  check_bool
    (Printf.sprintf "moderation slows copy (idle %.3f > busy %.3f)" idle busy)
    true (busy < idle *. 0.8)

(* --- IDE paths --- *)

let test_ide_copy_on_read () =
  let got = ref [||] in
  let rig, _vmm =
    deploy_and ~disk_kind:Machine.Ide_disk (fun _vmm blk ->
        got := Block_io.read blk ~lba:3000 ~count:32)
  in
  check_bool "ide redirect data" true
    (Array.for_all2 Content.equal !got (Content.image_sectors ~lba:3000 ~count:32));
  check_bool "written back" true
    (content_ok ~disk:rig.machine.Machine.disk ~lba:3000 ~count:32)

let test_ide_full_deployment () =
  let rig = make_rig ~disk_kind:Machine.Ide_disk () in
  let traps_after = ref (-1) in
  let vmm_ref = ref None in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      vmm_ref := Some vmm;
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      let t0 = Pio.trapped_accesses rig.machine.Machine.pio in
      ignore (Block_io.read blk ~lba:100 ~count:8 : Content.t array);
      traps_after := Pio.trapped_accesses rig.machine.Machine.pio - t0);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  let vmm = Option.get !vmm_ref in
  check_bool "ide deployed" true (Bitmap.is_complete (Vmm.bitmap vmm));
  check_bool "ide disk equals image" true
    (content_ok ~disk:rig.machine.Machine.disk ~lba:0 ~count:image_sectors);
  check_int "pio traps frozen after devirt" 0 !traps_after

(* --- bitmap persistence & resume (§3.3) --- *)

let test_bitmap_blob_roundtrip () =
  let b = Bitmap.create ~sectors:10_000 in
  ignore (Bitmap.fill_range b ~lba:100 ~count:3_000 : int);
  ignore (Bitmap.set_filled b 9_999 : bool);
  let blobs = Bitmap.to_blob_sectors b in
  check_int "sector count" (Bitmap.save_sectors ~sectors:10_000)
    (Array.length blobs);
  let b2 = Bitmap.create ~sectors:10_000 in
  Bitmap.load_blob_sectors b2 blobs;
  check_int "filled preserved" (Bitmap.filled_count b) (Bitmap.filled_count b2);
  check_bool "specific bit" true (Bitmap.is_filled b2 9_999);
  check_bool "empty bit" false (Bitmap.is_filled b2 50)

let test_bitmap_load_rejects_garbage () =
  let b = Bitmap.create ~sectors:10_000 in
  check_bool "raises" true
    (try
       Bitmap.load_blob_sectors b
         (Content.zeroes ~count:(Bitmap.save_sectors ~sectors:10_000));
       false
     with Invalid_argument _ -> true)

let test_shutdown_and_resume_deployment disk_kind () =
  (* Interrupt at mid-deployment, "reboot", resume: the second VMM must
     not refetch what the first already copied, and pre-reboot guest
     writes must survive. *)
  let rig = make_rig ~disk_kind () in
  let fetched_before_reboot = ref 0 in
  let fetched_total = ref 0 in
  let guest_data = Content.data_sectors ~count:16 in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let params = rig.params in
      let vmm1 =
        Vmm.boot rig.machine ~params ~server_port:(Vblade.port_id rig.vblade) ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Block_io.write blk ~lba:7_000 ~count:16 guest_data;
      (* Let roughly half the image land, then shut down. *)
      while Vmm.progress vmm1 < 0.5 do
        Sim.sleep (Time.ms 200)
      done;
      Vmm.shutdown vmm1;
      fetched_before_reboot :=
        Bmcast_storage.Disk.bytes_read rig.server_disk;
      (* "Reboot": a fresh VMM resumes on the same machine. *)
      let vmm2 =
        Vmm.boot rig.machine ~params ~server_port:(Vblade.port_id rig.vblade)
          ~resume:true ()
      in
      let blk2 = Block_io.attach rig.machine in
      ignore (Block_io.read blk2 ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm2;
      fetched_total := Bmcast_storage.Disk.bytes_read rig.server_disk);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  let image_bytes = image_sectors * 512 in
  (* The resumed deployment fetched only (roughly) the remaining half,
     not the whole image again. *)
  let second_fetch = !fetched_total - !fetched_before_reboot in
  check_bool
    (Printf.sprintf "second fetch %d MB < 70%% of image" (second_fetch / 1000000))
    true
    (second_fetch < image_bytes * 7 / 10);
  check_bool "first fetch was partial" true
    (!fetched_before_reboot < image_bytes);
  (* Disk correct: guest write survived the reboot and the resumed copy. *)
  check_bool "guest write survived" true
    (Array.for_all2 ( = ) (Array.map Content.view guest_data)
       (Disk.peek rig.machine.Machine.disk ~lba:7_000 ~count:16));
  check_bool "rest is image" true
    (content_ok ~disk:rig.machine.Machine.disk ~lba:0 ~count:7_000)

let test_protected_region_shields_bitmap disk_kind () =
  (* Guest reads/writes aimed at the save region are converted to dummy
     reads: the saved bitmap survives a hostile guest. *)
  let rig = make_rig ~disk_kind () in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      while Vmm.progress vmm < 0.3 do
        Sim.sleep (Time.ms 200)
      done;
      Vmm.shutdown vmm;
      (* A (still-running or malicious) guest tries to write over the
         saved bitmap... with the VMM gone this would work, so model
         the §3.3 scenario: attempt the write while a (resumed) VMM is
         resident. *)
      let vmm2 =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ~resume:true ()
      in
      let blk2 = Block_io.attach rig.machine in
      Block_io.write blk2 ~lba:image_sectors ~count:8
        (Content.data_sectors ~count:8);
      (* The write was converted to a dummy read: the on-disk save is
         untouched. *)
      (match Content.view (Disk.sector rig.machine.Machine.disk image_sectors) with
      | Content.Blob _ -> ()
      | c ->
        Alcotest.failf "bitmap save clobbered: %s"
          (Format.asprintf "%a" Content.pp c));
      Vmm.wait_devirtualized vmm2);
  Sim.run ~until:(Time.minutes 30) rig.sim

(* --- NIC mediator (shadow rings, §6) --- *)

module Nic = Bmcast_net.Nic
module Fabric_m = Bmcast_net.Fabric
module Packet = Bmcast_net.Packet
module Nic_mediator = Bmcast_core.Nic_mediator

type nic_rig = {
  nsim : Sim.t;
  nmachine : Machine.t;
  med : Nic_mediator.t;
  sink_rx : Packet.t list ref;
  sink : Bmcast_net.Fabric.port;
}

let nic_med_rig () =
  let nsim = Sim.create () in
  let fabric = Fabric_m.create nsim () in
  let nmachine =
    Machine.create nsim ~name:"n" ~disk_profile:test_disk_profile ~fabric ()
  in
  let sink_rx = ref [] in
  let sink = Fabric_m.attach fabric ~name:"sink" (fun p -> sink_rx := p :: !sink_rx) in
  let med = Nic_mediator.attach nmachine ~poll_interval:(Time.us 30) in
  { nsim; nmachine; med; sink_rx; sink }

(* Guest-side register access goes through the (interposed) MMIO bus. *)
let greg r off = Mmio.read r.nmachine.Machine.mmio (Machine.prod_nic_base + off)
let gwreg r off v = Mmio.write r.nmachine.Machine.mmio (Machine.prod_nic_base + off) v

let test_nicmed_guest_tx_relayed () =
  let r = nic_med_rig () in
  Sim.spawn_at r.nsim Time.zero (fun () ->
      let ring = Nic.default_tx_ring r.nmachine.Machine.prod_nic in
      Nic.set_tx_desc r.nmachine.Machine.prod_nic ~ring ~idx:0
        ~dst:(Fabric_m.port_id r.sink) ~size_bytes:1000 (Packet.Raw "guest");
      gwreg r Nic.Regs.tdt 1;
      (* The guest's view completes. *)
      check_int "guest tdh" 1 (greg r Nic.Regs.tdh));
  Sim.run ~until:(Time.s 2) r.nsim;
  check_int "frame on the wire" 1 (List.length !(r.sink_rx));
  check_int "stat" 1 (Nic_mediator.guest_tx_frames r.med)

let test_nicmed_interleaves_vmm_and_guest () =
  let r = nic_med_rig () in
  Sim.spawn_at r.nsim Time.zero (fun () ->
      let ring = Nic.default_tx_ring r.nmachine.Machine.prod_nic in
      for i = 0 to 4 do
        Nic_mediator.vmm_send r.med ~dst:(Fabric_m.port_id r.sink)
          ~size_bytes:500 (Packet.Raw "vmm");
        Nic.set_tx_desc r.nmachine.Machine.prod_nic ~ring ~idx:i
          ~dst:(Fabric_m.port_id r.sink) ~size_bytes:600 (Packet.Raw "guest");
        gwreg r Nic.Regs.tdt (i + 1)
      done);
  Sim.run ~until:(Time.s 2) r.nsim;
  check_int "all ten frames delivered" 10 (List.length !(r.sink_rx));
  check_int "vmm frames" 5 (Nic_mediator.vmm_tx_frames r.med);
  check_int "guest frames" 5 (Nic_mediator.guest_tx_frames r.med)

let test_nicmed_rx_demux () =
  let r = nic_med_rig () in
  (* VMM filter claims 1500-byte frames; the rest go to the guest. *)
  let vmm_got = ref 0 in
  Nic_mediator.set_vmm_rx r.med (fun p ->
      if p.Packet.size_bytes = 1500 then begin
        incr vmm_got;
        true
      end
      else false);
  let guest_irqs = ref 0 in
  Bmcast_hw.Irq.register r.nmachine.Machine.irq ~vec:Machine.prod_nic_irq_vec
    (fun () -> incr guest_irqs);
  Sim.spawn_at r.nsim Time.zero (fun () ->
      (* Guest publishes RX buffers and enables interrupts. *)
      gwreg r Nic.Regs.rdt 16;
      gwreg r Nic.Regs.ie 1;
      let dst = Fabric_m.port_id (Nic.port r.nmachine.Machine.prod_nic) in
      Fabric_m.send r.sink ~dst ~size_bytes:1500 (Packet.Raw "for-vmm");
      Fabric_m.send r.sink ~dst ~size_bytes:900 (Packet.Raw "for-guest"));
  Sim.run ~until:(Time.s 2) r.nsim;
  check_int "vmm consumed its frame" 1 !vmm_got;
  check_int "guest got one relay" 1 (Nic_mediator.guest_rx_relayed r.med);
  check_int "guest irq injected" 1 !guest_irqs;
  (* The relayed frame sits in the guest's own RX ring. *)
  (match
     Nic.rx_desc r.nmachine.Machine.prod_nic
       ~ring:(Nic.default_rx_ring r.nmachine.Machine.prod_nic) ~idx:0
   with
  | p when p == Nic.no_frame -> Alcotest.fail "guest ring empty"
  | p -> check_int "relayed size" 900 p.Packet.size_bytes);
  check_int "guest rdh" 1 (greg r Nic.Regs.rdh)

let test_nicmed_rx_drop_without_buffers () =
  let r = nic_med_rig () in
  Sim.spawn_at r.nsim Time.zero (fun () ->
      let dst = Fabric_m.port_id (Nic.port r.nmachine.Machine.prod_nic) in
      Fabric_m.send r.sink ~dst ~size_bytes:700 (Packet.Raw "x"));
  Sim.run ~until:(Time.s 2) r.nsim;
  check_int "dropped" 1 (Nic_mediator.guest_rx_dropped r.med);
  check_int "not relayed" 0 (Nic_mediator.guest_rx_relayed r.med)

let test_nicmed_devirtualize_hands_back () =
  let r = nic_med_rig () in
  Sim.spawn_at r.nsim Time.zero (fun () ->
      Nic_mediator.devirtualize r.med;
      let traps0 = Mmio.trapped_accesses r.nmachine.Machine.mmio in
      (* Direct guest use after hand-back: program own ring, no traps. *)
      let ring = Nic.default_tx_ring r.nmachine.Machine.prod_nic in
      gwreg r Nic.Regs.tdba ring;
      Nic.set_tx_desc r.nmachine.Machine.prod_nic ~ring ~idx:0
        ~dst:(Fabric_m.port_id r.sink) ~size_bytes:800 (Packet.Raw "direct");
      gwreg r Nic.Regs.tdt 1;
      check_int "no traps after devirt" traps0
        (Mmio.trapped_accesses r.nmachine.Machine.mmio));
  Sim.run r.nsim;
  check_int "frame delivered directly" 1 (List.length !(r.sink_rx))

let test_shared_nic_full_deployment () =
  (* A complete deployment with nic:`Shared: both the storage and the
     NIC mediator must quiesce and de-virtualize. *)
  let rig = make_rig () in
  let traps_after = ref (-1) in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ~nic:`Shared ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      let t0 = Mmio.trapped_accesses rig.machine.Machine.mmio in
      ignore (Block_io.read blk ~lba:100 ~count:8 : Content.t array);
      traps_after := Mmio.trapped_accesses rig.machine.Machine.mmio - t0);
  Sim.run ~until:(Time.minutes 30) rig.sim;
  check_int "zero traps after shared-nic devirt" 0 !traps_after

(* An exception in the VMM's rx path fails the simulation under the
   poller's name, however the poller is scheduled. *)
let test_netdrv_failure_names_poller () =
  let nsim = Sim.create () in
  let fabric = Fabric_m.create nsim () in
  let nmachine =
    Machine.create nsim ~name:"n" ~disk_profile:test_disk_profile ~fabric ()
  in
  let peer = Fabric_m.attach fabric ~name:"peer" (fun _ -> ()) in
  let mgmt = Fabric_m.port_id (Nic.port nmachine.Machine.mgmt_nic) in
  ignore
    (Bmcast_core.Vmm_netdrv.attach nmachine ~poll_interval:(Time.us 30)
       ~on_frame:(fun _ -> failwith "bad frame")
       ()
      : Bmcast_core.Vmm_netdrv.t);
  Sim.spawn_at nsim Time.zero (fun () ->
      Fabric_m.send peer ~dst:mgmt ~size_bytes:100 (Packet.Raw "x"));
  match Sim.run ~until:(Time.s 1) nsim with
  | () -> Alcotest.fail "expected Process_failure"
  | exception Sim.Process_failure (name, Failure msg) ->
    Alcotest.(check string) "process" "vmm-netdrv-poll" name;
    Alcotest.(check string) "cause" "bad frame" msg

(* A stopped driver hands back the frames still in its RX ring and
   publishes no more buffers, so a later frame is dropped at the NIC.
   Nothing keeps either frame's payload alive. *)
let test_netdrv_stop_drops_frames () =
  let nsim = Sim.create () in
  let fabric = Fabric_m.create nsim () in
  let nmachine =
    Machine.create nsim ~name:"n" ~disk_profile:test_disk_profile ~fabric ()
  in
  let nic = nmachine.Machine.mgmt_nic in
  let peer = Fabric_m.attach fabric ~name:"peer" (fun _ -> ()) in
  let mgmt = Fabric_m.port_id (Nic.port nic) in
  let received = ref 0 in
  let drv =
    Bmcast_core.Vmm_netdrv.attach nmachine ~poll_interval:(Time.us 30)
      ~on_frame:(fun _ -> incr received)
      ()
  in
  let payloads = Weak.create 2 in
  let send i =
    let payload = Packet.Raw (String.make 100 'x') in
    Weak.set payloads i (Some payload);
    Fabric_m.send peer ~dst:mgmt ~size_bytes:100 payload
  in
  Sim.spawn_at nsim Time.zero (fun () ->
      Fabric_m.send peer ~dst:mgmt ~size_bytes:100 (Packet.Raw "early");
      Sim.sleep (Time.ms 10);
      (* The idle poller has backed off: this frame reaches the ring
         well before the next poll. *)
      send 0;
      Sim.sleep (Time.us 100);
      Bmcast_core.Vmm_netdrv.stop drv;
      send 1);
  Sim.run ~until:(Time.s 1) nsim;
  check_int "delivered before stop" 1 !received;
  check_int "dropped after stop" 1 (Nic.rx_dropped nic);
  Gc.full_major ();
  check_bool "queued payload not kept" true
    (Option.is_none (Weak.get payloads 0));
  check_bool "late payload not kept" true
    (Option.is_none (Weak.get payloads 1));
  ignore (Sys.opaque_identity (nsim, drv))

(* The driver programs the NIC's own rings, on a first attach and when
   a resumed VMM attaches again, and a re-attached driver receives. *)
let test_netdrv_uses_default_rings () =
  let nsim = Sim.create () in
  let fabric = Fabric_m.create nsim () in
  let nmachine =
    Machine.create nsim ~name:"n" ~disk_profile:test_disk_profile ~fabric ()
  in
  let nic = nmachine.Machine.mgmt_nic in
  let peer = Fabric_m.attach fabric ~name:"peer" (fun _ -> ()) in
  let mgmt = Fabric_m.port_id (Nic.port nic) in
  let reg off = Mmio.read nmachine.Machine.mmio (Machine.mgmt_nic_base + off) in
  let check_rings what =
    check_int (what ^ ": TDBA") (Nic.default_tx_ring nic) (reg Nic.Regs.tdba);
    check_int (what ^ ": RDBA") (Nic.default_rx_ring nic) (reg Nic.Regs.rdba)
  in
  let received = ref 0 in
  let attach () =
    Bmcast_core.Vmm_netdrv.attach nmachine ~poll_interval:(Time.us 30)
      ~on_frame:(fun _ -> incr received)
      ()
  in
  let first = attach () in
  check_rings "first attach";
  Sim.spawn_at nsim Time.zero (fun () ->
      Fabric_m.send peer ~dst:mgmt ~size_bytes:100 (Packet.Raw "one");
      Sim.sleep (Time.ms 10);
      Bmcast_core.Vmm_netdrv.stop first;
      let again = attach () in
      check_rings "second attach";
      Fabric_m.send peer ~dst:mgmt ~size_bytes:100 (Packet.Raw "two");
      Sim.sleep (Time.ms 10);
      Bmcast_core.Vmm_netdrv.stop again);
  Sim.run ~until:(Time.s 1) nsim;
  check_int "both frames delivered" 2 !received;
  check_int "none dropped" 0 (Nic.rx_dropped nic)

(* --- management-NIC visibility (§4.3) --- *)

let mgmt_bdf = { Bmcast_hw.Pci.bus = 0; dev = 4; fn = 0 }

let nic_visibility ~hide =
  let rig = make_rig () in
  let visible = ref None in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ~hide_mgmt_nic:hide ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      visible :=
        Some (Bmcast_hw.Pci.find rig.machine.Machine.pci mgmt_bdf <> None));
  Sim.run ~until:(Time.minutes 30) rig.sim;
  Option.get !visible

let test_mgmt_nic_found_by_default () =
  (* 4.3: "if the guest OS tries to detect it after de-virtualization,
     it can be found". *)
  check_bool "guest can find the mgmt NIC" true (nic_visibility ~hide:false)

let test_mgmt_nic_hidden_on_request () =
  check_bool "config space filtered" false (nic_visibility ~hide:true)

(* --- VMXOFF modes (§4.3) --- *)

let exits_in_10min ~vmxoff =
  let rig = make_rig () in
  let counts = ref (0, 0) in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ~vmxoff ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      let e0 = Cpu.total_exits rig.machine.Machine.cpu in
      let c0 = Cpu.exits rig.machine.Machine.cpu Cpu.Cpuid in
      Sim.sleep (Time.minutes 10);
      (* Residual CPUID exits are accounted lazily; [Vmm.totals] is the
         sync point that folds them into the CPU counters. *)
      ignore (Vmm.totals vmm);
      counts :=
        ( Cpu.total_exits rig.machine.Machine.cpu - e0,
          Cpu.exits rig.machine.Machine.cpu Cpu.Cpuid - c0 ));
  Sim.run ~until:(Time.minutes 30) rig.sim;
  !counts

let test_vmxoff_resident_cpuid_exits () =
  (* The paper's evaluated configuration: only CPUID still exits, every
     couple of seconds to minutes (5.5.2). *)
  let total, cpuid = exits_in_10min ~vmxoff:`Resident in
  check_bool (Printf.sprintf "some cpuid exits (%d)" cpuid) true (cpuid >= 2);
  check_int "and nothing else" cpuid total

let test_vmxoff_guest_module_silences_cpuid () =
  let total, cpuid = exits_in_10min ~vmxoff:`Guest_module in
  check_int "no cpuid" 0 cpuid;
  check_int "no exits at all" 0 total

let test_vmm_event_log () =
  let rig = make_rig () in
  let events = ref [] in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      events := List.map snd (Vmm.events vmm));
  Sim.run ~until:(Time.minutes 30) rig.sim;
  check_bool "booted logged" true (List.mem "VMM booted" !events);
  check_bool "deployed logged" true (List.mem "image fully deployed" !events);
  check_bool "devirt logged" true (List.mem "de-virtualized" !events)

(* --- whole-deployment determinism --- *)

let test_deployment_deterministic disk_kind () =
  (* Two identical runs de-virtualize at the same virtual nanosecond and
     fetch the same number of bytes. *)
  let run_once () =
    let rig = make_rig ~disk_kind () in
    let out = ref (0, 0) in
    Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
        let vmm =
          Vmm.boot rig.machine ~params:rig.params
            ~server_port:(Vblade.port_id rig.vblade) ()
        in
        let blk = Block_io.attach rig.machine in
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        Vmm.wait_devirtualized vmm;
        out :=
          ( Option.get (Vmm.devirtualized_at vmm),
            (Vmm.totals vmm).Vmm.redirected_bytes ));
    Sim.run ~until:(Time.minutes 30) rig.sim;
    !out
  in
  let t1, b1 = run_once () in
  let t2, b2 = run_once () in
  check_int "same devirt time" t1 t2;
  check_int "same redirected bytes" b1 b2

(* --- memory release extension --- *)

let test_memory_release_extension () =
  let rig, vmm =
    deploy_and ~release_memory:true (fun vmm blk ->
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        Vmm.wait_devirtualized vmm)
  in
  ignore vmm;
  check_int "memory returned" 0
    (Memmap.vmm_reserved_bytes rig.machine.Machine.memmap)

let test_memory_reserved_by_default () =
  let rig, vmm =
    deploy_and (fun vmm blk ->
        ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
        Vmm.wait_devirtualized vmm)
  in
  ignore vmm;
  check_int "prototype keeps its 128 MB" (128 * 1024 * 1024)
    (Memmap.vmm_reserved_bytes rig.machine.Machine.memmap)

(* --- what a de-virtualized machine keeps --- *)

(* Deploy one AHCI machine on a sim with a live metrics registry, and
   return the sim's roots, whether the VMM de-virtualized, and a weak
   pointer to the VMM's AoE client taken when it did. The VMM is
   dropped. With [carousel], the machine joins a multicast group that
   the server streams the image to for 4 passes, so frames keep
   reaching its NIC after de-virtualization. Not inlined, so nothing
   of the deployment stays in the caller's registers. *)
let[@inline never] deploy_and_drop_vmm ~carousel =
  let metrics = Bmcast_obs.Metrics.create () in
  let rig = make_rig ~metrics () in
  let mcast_group =
    if carousel then begin
      let group = Fabric.mcast_group rig.fabric in
      Sim.schedule rig.sim (Time.s 6) (fun () ->
          Vblade.multicast rig.vblade ~group ~lba:0 ~count:image_sectors
            ~passes:4 ~gap:(Time.ms 200) ());
      Some group
    end
    else None
  in
  let devirtualized = ref false and client = Weak.create 1 in
  Sim.spawn_at rig.sim ~name:"scenario" Time.zero (fun () ->
      let vmm =
        Vmm.boot rig.machine ~params:rig.params
          ~server_port:(Vblade.port_id rig.vblade) ?mcast_group ()
      in
      let blk = Block_io.attach rig.machine in
      ignore (Block_io.read blk ~lba:0 ~count:8 : Content.t array);
      Vmm.wait_devirtualized vmm;
      devirtualized := true;
      Weak.set client 0 (Some (Vmm.aoe_client vmm)));
  Sim.run ~until:(Time.minutes 30) rig.sim;
  (rig, metrics, !devirtualized, client)

(* The weak slot may already be empty when [Sim.run] returns (a major
   cycle can finish while late frames arrive), so de-virtualization is
   read from its own flag. *)
let test_devirtualized_vmm_collectable ~carousel () =
  let rig, metrics, devirtualized, client = deploy_and_drop_vmm ~carousel in
  check_bool "de-virtualized" true devirtualized;
  Gc.full_major ();
  check_bool "aoe client collected" true (Option.is_none (Weak.get client 0));
  if carousel then
    check_bool "late carousel frames dropped" true
      (Nic.rx_dropped rig.machine.Machine.mgmt_nic > 0);
  (* The roots stay reachable across the collection. *)
  check_bool "metrics registry live" true (Bmcast_obs.Metrics.size metrics > 0);
  ignore (Sys.opaque_identity rig)

let () =
  let tc = Alcotest.test_case in
  Alcotest.run "core"
    [ ( "bitmap",
        [ tc "basics" `Quick test_bitmap_basics;
          tc "empty subranges" `Quick test_bitmap_empty_subranges;
          tc "find empty run" `Quick test_bitmap_find_empty_run;
          tc "serialization" `Quick test_bitmap_serialization;
          QCheck_alcotest.to_alcotest prop_bitmap_fill_count_consistent;
          QCheck_alcotest.to_alcotest prop_bitmap_scans_match_reference;
          tc "scans ignore padding" `Quick test_bitmap_scans_ignore_padding;
          tc "range_filled allocates nothing" `Quick
            test_bitmap_range_filled_allocates_nothing ] );
      ( "mediator",
        [ tc "ahci vmm commands bind the caller's array" `Quick
            (test_vmm_commands_bind_caller_array Machine.Ahci_disk);
          tc "ide vmm commands bind the caller's array" `Quick
            (test_vmm_commands_bind_caller_array Machine.Ide_disk);
          tc "ide vmm_read leaves a cache hint" `Quick
            test_ide_vmm_read_cache_hint ] );
      ( "memory",
        [ tc "ahci write-if-empty fill" `Quick
            (test_fill_memory Machine.Ahci_disk 32.0);
          tc "ide write-if-empty fill" `Quick
            (test_fill_memory Machine.Ide_disk 32.0);
          tc "background copy chunk" `Quick test_copy_memory ] );
      ( "copy-on-read",
        [ tc "returns image data" `Quick test_copy_on_read_returns_image_data;
          tc "cold redirects, warm does not" `Quick
            test_cold_read_redirects_warm_does_not;
          tc "write passthrough" `Quick test_guest_write_passthrough;
          tc "mixed read assembles" `Quick test_mixed_read_assembles_correctly;
          tc "multi-slot guest commands" `Quick test_multi_slot_guest_commands ] );
      ( "deployment",
        [ tc "completes" `Slow test_full_deployment_completes;
          tc "ahci command tables reused" `Slow test_ahci_command_tables_reused;
          tc "progress monotone" `Slow test_deployment_progress_monotone;
          tc "guest writes never clobbered" `Slow
            (test_guest_write_never_clobbered Machine.Ahci_disk);
          tc "survives packet loss" `Slow test_deployment_survives_packet_loss;
          QCheck_alcotest.to_alcotest
            (prop_random_workload_consistency Machine.Ahci_disk);
          QCheck_alcotest.to_alcotest prop_pooling_observationally_identical;
          tc "moderation under load" `Quick test_moderation_suspends_under_load ] );
      ( "ide",
        [ tc "copy on read" `Quick test_ide_copy_on_read;
          tc "full deployment" `Slow test_ide_full_deployment;
          tc "prd tables reused" `Slow test_ide_prd_tables_reused;
          tc "guest writes never clobbered" `Slow
            (test_guest_write_never_clobbered Machine.Ide_disk);
          QCheck_alcotest.to_alcotest
            (prop_random_workload_consistency Machine.Ide_disk);
          tc "shutdown and resume" `Slow
            (test_shutdown_and_resume_deployment Machine.Ide_disk);
          tc "protected region shields bitmap" `Slow
            (test_protected_region_shields_bitmap Machine.Ide_disk);
          tc "deployment deterministic" `Slow
            (test_deployment_deterministic Machine.Ide_disk) ] );
      ( "persistence",
        [ tc "bitmap blob roundtrip" `Quick test_bitmap_blob_roundtrip;
          tc "load rejects garbage" `Quick test_bitmap_load_rejects_garbage;
          tc "shutdown and resume" `Slow
            (test_shutdown_and_resume_deployment Machine.Ahci_disk);
          tc "protected region shields bitmap" `Slow
            (test_protected_region_shields_bitmap Machine.Ahci_disk) ] );
      ( "nic-mediator",
        [ tc "guest tx relayed" `Quick test_nicmed_guest_tx_relayed;
          tc "interleaves vmm and guest" `Quick test_nicmed_interleaves_vmm_and_guest;
          tc "rx demux" `Quick test_nicmed_rx_demux;
          tc "rx drop without buffers" `Quick test_nicmed_rx_drop_without_buffers;
          tc "devirtualize hands back" `Quick test_nicmed_devirtualize_hands_back;
          tc "netdrv failure names the poller" `Quick
            test_netdrv_failure_names_poller;
          tc "stopped netdrv drops frames" `Quick test_netdrv_stop_drops_frames;
          tc "netdrv uses the NIC's own rings" `Quick
            test_netdrv_uses_default_rings;
          tc "shared-nic full deployment" `Slow test_shared_nic_full_deployment ] );
      ( "devirtualization",
        [ tc "zero overhead" `Quick test_devirt_zero_overhead;
          tc "memory release extension" `Quick test_memory_release_extension;
          tc "memory reserved by default" `Quick test_memory_reserved_by_default;
          tc "vmm collectable" `Quick
            (test_devirtualized_vmm_collectable ~carousel:false);
          tc "vmm collectable with a carousel" `Quick
            (test_devirtualized_vmm_collectable ~carousel:true);
          tc "mgmt NIC visible by default" `Quick test_mgmt_nic_found_by_default;
          tc "mgmt NIC hidden on request" `Quick test_mgmt_nic_hidden_on_request;
          tc "vmxoff resident: cpuid residual" `Slow test_vmxoff_resident_cpuid_exits;
          tc "vmxoff guest module silences cpuid" `Slow
            test_vmxoff_guest_module_silences_cpuid;
          tc "event log" `Quick test_vmm_event_log;
          tc "deployment deterministic" `Slow
            (test_deployment_deterministic Machine.Ahci_disk) ] ) ]
