module Sim = Bmcast_engine.Sim
module Time = Bmcast_engine.Time
module Prng = Bmcast_engine.Prng
module Trace = Bmcast_obs.Trace

type profile = {
  name : string;
  capacity_sectors : int;
  media_rate_bytes_per_s : float;
  write_factor : float;  (* writes stream slightly slower than reads *)
  track_to_track_seek : Time.span;
  full_stroke_seek : Time.span;
  rotation_period : Time.span;
  cache_hit_time : Time.span;
  fixed_overhead : Time.span;
}

let hdd_constellation2 =
  { name = "Seagate Constellation.2 500GB 7200rpm";
    capacity_sectors = 976_773_168;  (* 500 GB in 512-byte sectors *)
    media_rate_bytes_per_s = 119.5e6;
    write_factor = 1.045;
    track_to_track_seek = Time.us 800;
    full_stroke_seek = Time.ms 16;
    rotation_period = Time.us 8333;  (* 7200 rpm *)
    cache_hit_time = Time.us 120;
    fixed_overhead = Time.us 150 }

let ssd_sata =
  { name = "SATA SSD";
    capacity_sectors = 976_773_168;
    media_rate_bytes_per_s = 500e6;
    write_factor = 1.2;
    track_to_track_seek = 0;
    full_stroke_seek = 0;
    rotation_period = 0;
    cache_hit_time = Time.us 40;
    fixed_overhead = Time.us 60 }

exception Read_error of int

(* An injected transient media fault: reads overlapping [lba, lba+count)
   fail [remaining] more times before the sectors read clean again. *)
type read_fault = {
  f_lba : int;
  f_count : int;
  mutable f_remaining : int;
}

type t = {
  sim : Sim.t;
  traced : bool;  (* [Trace.on] for "storage", resolved once at create *)
  profile : profile;
  extents : Extent_map.t;  (* [Content.run_of] values *)
  prng : Prng.t;
  mutable head_pos : int;  (* LBA after the last media access *)
  mutable cache_start : int;  (* last-read window, for cache hits *)
  mutable cache_len : int;
  mutable bytes_read : int;
  mutable bytes_written : int;
  mutable seeks : int;
  mutable busy_time : Time.span;
  mutable read_faults : read_fault list;
  mutable spike_extra : Time.span;
  mutable spike_until : Time.t;
  mutable read_errors : int;
}

let create sim profile =
  { sim;
    traced = Trace.on (Sim.trace sim) ~cat:"storage";
    profile;
    extents = Extent_map.create ();
    prng = Prng.split (Sim.rand sim);
    head_pos = 0;
    cache_start = 0;
    cache_len = 0;
    bytes_read = 0;
    bytes_written = 0;
    seeks = 0;
    busy_time = 0;
    read_faults = [];
    spike_extra = 0;
    spike_until = 0;
    read_errors = 0 }

let capacity_sectors t = t.profile.capacity_sectors

(* --- fault injection hook points --- *)

let inject_read_errors t ~lba ~count ~times =
  if count <= 0 || times <= 0 then
    invalid_arg "Disk.inject_read_errors: count and times must be positive";
  t.read_faults <-
    { f_lba = lba; f_count = count; f_remaining = times } :: t.read_faults

let set_latency_spike t ~extra ~until =
  t.spike_extra <- extra;
  t.spike_until <- until

let read_errors t = t.read_errors

(* A timed read overlapping a live fault window burns one of the
   fault's remaining failures and errors out (after the mechanical
   service time — the head did travel). *)
let take_read_fault t ~lba ~count =
  let hit =
    match t.read_faults with
    | [] -> None
    | faults ->
      List.find_opt
        (fun f ->
          f.f_remaining > 0 && f.f_lba < lba + count && lba < f.f_lba + f.f_count)
        faults
  in
  match hit with
  | None -> None
  | Some f ->
    f.f_remaining <- f.f_remaining - 1;
    if f.f_remaining = 0 then
      t.read_faults <- List.filter (fun g -> g != f) t.read_faults;
    t.read_errors <- t.read_errors + 1;
    Some (max lba f.f_lba)

let check_span t ~lba ~count =
  if lba < 0 || count <= 0 || lba + count > t.profile.capacity_sectors then
    invalid_arg
      (Printf.sprintf "Disk: bad span lba=%d count=%d (capacity %d)" lba count
         t.profile.capacity_sectors)

(* --- content --- *)

(* One mapped piece of a [peek_into] read; zero runs are left as they
   are. Closed, so passing it builds no closure. *)
let fill_piece out ~off ~lba:pos ~count:n run =
  if run <> 0 then Content.fill_run out off n ~run ~pos

(* Materialize into a caller-owned buffer (often a [Content.Scratch]
   array): the hot read paths stage sectors through here without a fresh
   array per call. The buffer region must be all-[zero] on entry
   (scratch arrays and fresh arrays both are); unmapped and zero runs
   are skipped, not stored. *)
let peek_into t ~lba ~count out =
  check_span t ~lba ~count;
  if count > Array.length out then invalid_arg "Disk.peek_into: buffer too short";
  Extent_map.iter_range t.extents ~lba ~count out ~f:fill_piece

let peek t ~lba ~count =
  check_span t ~lba ~count;
  let out = Content.zeroes ~count in
  peek_into t ~lba ~count out;
  Array.map Content.view out

(* Split written data into runs of one run value so extents stay
   compact. Only [data]'s first [count] sectors are written: a scratch
   array may be longer. *)
let poke t ~lba ~count data =
  check_span t ~lba ~count;
  if count > Array.length data then invalid_arg "Disk.poke: buffer too short";
  let start = ref 0 in
  while !start < count do
    let run = Content.run_of data.(!start) ~pos:(lba + !start) in
    let finish = ref (!start + 1) in
    while
      !finish < count
      && Content.run_of data.(!finish) ~pos:(lba + !finish) = run
    do
      incr finish
    done;
    Extent_map.set t.extents ~lba:(lba + !start) ~count:(!finish - !start) run;
    start := !finish
  done

let sector t lba =
  let out = Content.zeroes ~count:1 in
  peek_into t ~lba ~count:1 out;
  out.(0)

let mapped_sectors_in t ~lba ~count =
  Extent_map.covered_range t.extents ~lba ~count

let fill_with_image t =
  Extent_map.set t.extents ~lba:0 ~count:t.profile.capacity_sectors
    (Content.run_of (Content.image 0) ~pos:0)

(* --- timing --- *)

let in_cache t ~lba ~count =
  count <= t.cache_len && lba >= t.cache_start
  && lba + count <= t.cache_start + t.cache_len

let seek_time t distance =
  if distance = 0 then 0
  else begin
    let p = t.profile in
    let frac = float_of_int distance /. float_of_int p.capacity_sectors in
    (* [Time.of_float_s (Time.to_float_s d *. sqrt frac)], written out
       as in [transfer_time] below. *)
    let extra =
      let d = p.full_stroke_seek - p.track_to_track_seek in
      int_of_float (Float.round (float_of_int d /. 1e9 *. sqrt frac *. 1e9))
    in
    p.track_to_track_seek + extra
  end

let rotation t distance =
  if distance = 0 || t.profile.rotation_period = 0 then 0
  else Prng.int t.prng t.profile.rotation_period

let transfer_time t op count =
  let rate =
    match op with
    | `Read -> t.profile.media_rate_bytes_per_s
    | `Write -> t.profile.media_rate_bytes_per_s /. t.profile.write_factor
  in
  (* [Time.of_float_s] written out, as [Fabric.transmit_span] does: a
     float passed to another module is boxed under [-opaque]. *)
  int_of_float (Float.round (float_of_int (count * 512) /. rate *. 1e9))

let spike t =
  if Sim.now t.sim < t.spike_until then t.spike_extra else 0

let service_time t op ~lba ~count =
  check_span t ~lba ~count;
  match op with
  | `Read when in_cache t ~lba ~count -> t.profile.cache_hit_time + spike t
  | `Read | `Write ->
    let distance = abs (lba - t.head_pos) in
    t.profile.fixed_overhead + seek_time t distance + rotation t distance
    + transfer_time t op count + spike t

let serve t op ~lba ~count =
  let span = service_time t op ~lba ~count in
  let cache_hit = op = `Read && in_cache t ~lba ~count in
  if not cache_hit then begin
    if lba <> t.head_pos then t.seeks <- t.seeks + 1;
    t.head_pos <- lba + count;
    if op = `Read then begin
      t.cache_start <- lba;
      t.cache_len <- count
    end
  end;
  t.busy_time <- t.busy_time + span;
  if t.traced then begin
    let ts = Sim.now t.sim in
    Sim.sleep span;
    Trace.complete (Sim.trace t.sim) ~cat:"storage"
      ~args:
        [ ("lba", Trace.Int lba);
          ("count", Trace.Int count);
          ("cache-hit", Trace.Bool cache_hit) ]
      (match op with `Read -> "disk-read" | `Write -> "disk-write")
      ~ts
  end
  else Sim.sleep span

let read_service t ~lba ~count =
  serve t `Read ~lba ~count;
  (match take_read_fault t ~lba ~count with
  | Some bad_lba -> raise (Read_error bad_lba)
  | None -> ());
  t.bytes_read <- t.bytes_read + (count * 512)

let read t ~lba ~count =
  read_service t ~lba ~count;
  let out = Content.zeroes ~count in
  peek_into t ~lba ~count out;
  out

let read_into t ~lba ~count out =
  read_service t ~lba ~count;
  peek_into t ~lba ~count out

let write t ~lba ~count data =
  serve t `Write ~lba ~count;
  t.bytes_written <- t.bytes_written + (count * 512);
  poke t ~lba ~count data

let bytes_read t = t.bytes_read
let bytes_written t = t.bytes_written
let seeks t = t.seeks
let busy_time t = t.busy_time
