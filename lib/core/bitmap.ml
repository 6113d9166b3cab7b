module Content = Bmcast_storage.Content

type t = { sectors : int; bits : Bytes.t; mutable filled : int }

let bytes_for sectors = (sectors + 7) / 8

let create ~sectors =
  if sectors <= 0 then invalid_arg "Bitmap.create: sectors must be positive";
  { sectors; bits = Bytes.make (bytes_for sectors) '\000'; filled = 0 }

let sectors t = t.sectors

let check t i =
  if i < 0 || i >= t.sectors then
    invalid_arg (Printf.sprintf "Bitmap: sector %d out of range" i)

let is_filled t i =
  check t i;
  Char.code (Bytes.get t.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let set_filled t i =
  check t i;
  let byte = Char.code (Bytes.get t.bits (i lsr 3)) in
  let mask = 1 lsl (i land 7) in
  if byte land mask = 0 then begin
    Bytes.set t.bits (i lsr 3) (Char.chr (byte lor mask));
    t.filled <- t.filled + 1;
    true
  end
  else false

let rec popcount b = if b = 0 then 0 else (b land 1) + popcount (b lsr 1)
let popcounts = String.init 256 (fun b -> Char.chr (popcount b))

(* Set the [mask] bits of byte [k]; returns how many were clear. *)
let set_bits bits k mask =
  let b = Char.code (Bytes.unsafe_get bits k) in
  Bytes.unsafe_set bits k (Char.unsafe_chr (b lor mask));
  Char.code (String.unsafe_get popcounts (mask land lnot b))

(* Fill sectors [\[lo, hi)], [0 <= lo < hi <= sectors]: the partial
   bytes at either end, whole bytes between. *)
let fill_bits bits lo hi =
  let first = lo lsr 3 and last = (hi - 1) lsr 3 in
  let head = (0xff lsl (lo land 7)) land 0xff in
  let tail = 0xff lsr (7 - ((hi - 1) land 7)) in
  if first = last then set_bits bits first (head land tail)
  else begin
    let newly = ref (set_bits bits first head) in
    for k = first + 1 to last - 1 do
      newly := !newly + set_bits bits k 0xff
    done;
    !newly + set_bits bits last tail
  end

(* As the per-sector loop it replaces: a range that runs past the map
   fills its in-range part, then raises for the first sector out of
   range. *)
let fill_range t ~lba ~count =
  if count <= 0 then 0
  else begin
    check t lba;
    let newly = fill_bits t.bits lba (min (lba + count) t.sectors) in
    t.filled <- t.filled + newly;
    if lba + count > t.sectors then check t t.sectors;
    newly
  end

(* --- scans ---

   Sector [i] is bit [i land 7] of byte [i lsr 3], so the 64 sectors from
   a multiple of 64 are one little-endian int64 word. [seek] returns the
   first sector in [\[i, limit)] whose bit equals [want], or [limit]. It
   passes over whole words and whole bytes that hold no [want] bit and
   tests single bits only between them, at a run's edges. A word or byte
   is read only when it ends at or before [limit], and callers keep
   [limit <= sectors], so padding bits past [sectors] (which [of_bytes]
   may load) are never seen. Top-level tail recursion keeps a scan free
   of allocation. *)

let bit bits i =
  Char.code (Bytes.unsafe_get bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let byte_skips bits ~want i =
  let b = Char.code (Bytes.unsafe_get bits (i lsr 3)) in
  if want then b = 0 else b = 0xff

let word_skips bits ~want i =
  let w = Bytes.get_int64_le bits (i lsr 3) in
  if want then w = 0L else w = -1L

let rec seek bits ~want i limit =
  if i >= limit then limit
  else if i land 63 = 0 && i + 64 <= limit && word_skips bits ~want i then
    seek bits ~want (i + 64) limit
  else if i land 7 = 0 && i + 8 <= limit && byte_skips bits ~want i then
    seek bits ~want (i + 8) limit
  else if bit bits i = want then i
  else seek bits ~want (i + 1) limit

(* The bounds check of a per-sector walk over [lba, lba + count): it
   raises for the first sector out of range, as [is_filled] would. *)
let check_range t ~lba ~count =
  if count > 0 then begin
    check t lba;
    if lba + count > t.sectors then check t t.sectors
  end

let empty_subranges t ~lba ~count =
  check_range t ~lba ~count;
  let limit = lba + count in
  let rec runs i acc =
    let s = seek t.bits ~want:false i limit in
    if s >= limit then List.rev acc
    else
      let e = seek t.bits ~want:true (s + 1) limit in
      runs e ((s, e - s) :: acc)
  in
  runs lba []

let range_filled t ~lba ~count =
  check_range t ~lba ~count;
  seek t.bits ~want:false lba (lba + count) >= lba + count

(* Sectors at or past [sectors] count as filled. *)
let check_from from =
  if from < 0 then
    invalid_arg (Printf.sprintf "Bitmap: sector %d out of range" from)

let next_empty t ~from ~limit =
  if from >= limit then limit
  else begin
    check_from from;
    let stop = min limit t.sectors in
    if from >= stop then limit
    else
      let s = seek t.bits ~want:false from stop in
      if s < stop then s else limit
  end

let next_filled t ~from ~limit =
  if from >= limit then limit
  else begin
    check_from from;
    if from >= t.sectors then from
    else seek t.bits ~want:true from (min limit t.sectors)
  end

let filled_count t = t.filled
let is_complete t = t.filled = t.sectors

let find_empty_run t ~from ~max =
  if is_complete t then None
  else begin
    let from = if from < 0 || from >= t.sectors then 0 else from in
    let start =
      let s = seek t.bits ~want:false from t.sectors in
      if s < t.sectors then s
      else begin
        let s = seek t.bits ~want:false 0 from in
        assert (s < from);
        s
      end
    in
    (* A run is at least one sector long, even when [max <= 1]. *)
    let limit =
      if max <= 1 then start + 1
      else if max >= t.sectors - start then t.sectors
      else start + max
    in
    let stop = seek t.bits ~want:true (start + 1) limit in
    Some (start, stop - start)
  end

let to_bytes t = Bytes.copy t.bits

let of_bytes ~sectors b =
  if Bytes.length b <> bytes_for sectors then
    invalid_arg "Bitmap.of_bytes: size mismatch";
  let t = { sectors; bits = Bytes.copy b; filled = 0 } in
  let filled = ref 0 in
  for i = 0 to sectors - 1 do
    if is_filled t i then incr filled
  done;
  t.filled <- !filled;
  t

(* --- persistence (3.3): serialize to 512-byte Blob sectors --- *)

let save_sectors ~sectors = (bytes_for sectors + 511) / 512

let to_blob_sectors t =
  let b = to_bytes t in
  let n = save_sectors ~sectors:t.sectors in
  Array.init n (fun i ->
      let off = i * 512 in
      let len = min 512 (Bytes.length b - off) in
      let chunk = Bytes.make 512 '\000' in
      Bytes.blit b off chunk 0 len;
      Content.blob (Bytes.to_string chunk))

let load_blob_sectors t data =
  let expect = save_sectors ~sectors:t.sectors in
  if Array.length data <> expect then
    invalid_arg "Bitmap.load_blob_sectors: wrong sector count";
  let b = Bytes.create (bytes_for t.sectors) in
  Array.iteri
    (fun i c ->
      match Content.view c with
      | Content.Blob s ->
        let off = i * 512 in
        let len = min 512 (Bytes.length b - off) in
        Bytes.blit_string s 0 b off len
      | Content.Zero | Content.Image _ | Content.Data _ ->
        invalid_arg "Bitmap.load_blob_sectors: sector is not a saved bitmap")
    data;
  Bytes.blit b 0 t.bits 0 (Bytes.length b);
  let filled = ref 0 in
  for i = 0 to t.sectors - 1 do
    if is_filled t i then incr filled
  done;
  t.filled <- !filled
