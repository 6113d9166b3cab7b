(* Chunk-bitmap gossip summaries and their canonical run-length wire
   codec. See gossip.mli for the contract. *)

type summary = {
  chunks : int;
  bits : Bytes.t;  (* one bit per chunk, LSB-first within a byte *)
  mutable held : int;
}

let create ~chunks =
  if chunks < 0 then invalid_arg "Gossip.create: negative chunk count";
  { chunks; bits = Bytes.make ((chunks + 7) / 8) '\000'; held = 0 }

let chunks s = s.chunks

let check_index s i name =
  if i < 0 || i >= s.chunks then
    invalid_arg (Printf.sprintf "Gossip.%s: chunk %d out of %d" name i s.chunks)

let mem_unsafe s i =
  Char.code (Bytes.unsafe_get s.bits (i lsr 3)) land (1 lsl (i land 7)) <> 0

let mem s i =
  check_index s i "mem";
  mem_unsafe s i

let set s i =
  check_index s i "set";
  if not (mem_unsafe s i) then begin
    let b = i lsr 3 in
    Bytes.unsafe_set s.bits b
      (Char.chr (Char.code (Bytes.unsafe_get s.bits b) lor (1 lsl (i land 7))));
    s.held <- s.held + 1
  end

let cardinal s = s.held

let copy s = { chunks = s.chunks; bits = Bytes.copy s.bits; held = s.held }

let equal a b = a.chunks = b.chunks && Bytes.equal a.bits b.bits

let merge_into ~into src =
  if into.chunks <> src.chunks then
    invalid_arg "Gossip.merge: mismatched chunk counts";
  let held = ref 0 in
  for b = 0 to Bytes.length into.bits - 1 do
    let v =
      Char.code (Bytes.unsafe_get into.bits b)
      lor Char.code (Bytes.unsafe_get src.bits b)
    in
    Bytes.unsafe_set into.bits b (Char.chr v);
    (* popcount of a byte; summaries are small and merges are rare. *)
    let v = ref v in
    while !v <> 0 do
      held := !held + (!v land 1);
      v := !v lsr 1
    done
  done;
  into.held <- !held

let merge a b =
  let r = copy a in
  merge_into ~into:r b;
  r

let runs s =
  let out = ref [] in
  let start = ref (-1) in
  for i = 0 to s.chunks - 1 do
    if mem_unsafe s i then begin
      if !start < 0 then start := i
    end
    else if !start >= 0 then begin
      out := (!start, i - !start) :: !out;
      start := -1
    end
  done;
  if !start >= 0 then out := (!start, s.chunks - !start) :: !out;
  List.rev !out

let of_runs ~chunks rs =
  let s = create ~chunks in
  List.iter
    (fun (start, len) ->
      if len < 0 then invalid_arg "Gossip.of_runs: negative run length";
      for i = start to start + len - 1 do
        set s i
      done)
    rs;
  s

(* --- wire codec --- *)

type msg = { origin : int; epoch : int; summary : summary }

let magic = 0xB7
let version = 1

(* magic, version, origin be32, epoch be32, chunks be32, n_runs be16,
   then (start be32, len be32) per run. *)
let header_len = 1 + 1 + 4 + 4 + 4 + 2

let wire_size m = header_len + (8 * List.length (runs m.summary))

let put32 b off v =
  Bytes.set_uint8 b off ((v lsr 24) land 0xFF);
  Bytes.set_uint8 b (off + 1) ((v lsr 16) land 0xFF);
  Bytes.set_uint8 b (off + 2) ((v lsr 8) land 0xFF);
  Bytes.set_uint8 b (off + 3) (v land 0xFF)

let get32 b off =
  (Bytes.get_uint8 b off lsl 24)
  lor (Bytes.get_uint8 b (off + 1) lsl 16)
  lor (Bytes.get_uint8 b (off + 2) lsl 8)
  lor Bytes.get_uint8 b (off + 3)

let encode m =
  let rs = runs m.summary in
  let n = List.length rs in
  if n > 0xFFFF then invalid_arg "Gossip.encode: too many runs";
  if m.origin < 0 || m.origin > 0xFFFF_FFFF then
    invalid_arg "Gossip.encode: origin out of range";
  if m.epoch < 0 || m.epoch > 0xFFFF_FFFF then
    invalid_arg "Gossip.encode: epoch out of range";
  let b = Bytes.make (header_len + (8 * n)) '\000' in
  Bytes.set_uint8 b 0 magic;
  Bytes.set_uint8 b 1 version;
  put32 b 2 m.origin;
  put32 b 6 m.epoch;
  put32 b 10 m.summary.chunks;
  Bytes.set_uint8 b 14 ((n lsr 8) land 0xFF);
  Bytes.set_uint8 b 15 (n land 0xFF);
  List.iteri
    (fun i (start, len) ->
      put32 b (header_len + (8 * i)) start;
      put32 b (header_len + (8 * i) + 4) len)
    rs;
  b

let decode b =
  let fail fmt = Printf.ksprintf invalid_arg ("Gossip.decode: " ^^ fmt) in
  if Bytes.length b < header_len then fail "short buffer";
  if Bytes.get_uint8 b 0 <> magic then fail "bad magic";
  if Bytes.get_uint8 b 1 <> version then fail "bad version";
  let origin = get32 b 2 in
  let epoch = get32 b 6 in
  let chunks = get32 b 10 in
  let n = (Bytes.get_uint8 b 14 lsl 8) lor Bytes.get_uint8 b 15 in
  if Bytes.length b <> header_len + (8 * n) then fail "bad length";
  let summary = create ~chunks in
  let prev_end = ref (-1) in
  for i = 0 to n - 1 do
    let start = get32 b (header_len + (8 * i)) in
    let len = get32 b (header_len + (8 * i) + 4) in
    (* Canonical form only: non-empty, ascending, non-adjacent runs. *)
    if len < 1 then fail "empty run";
    if start <= !prev_end then fail "non-canonical run order";
    if start + len > chunks then fail "run past end";
    for c = start to start + len - 1 do
      set summary c
    done;
    prev_end := start + len
  done;
  { origin; epoch; summary }

type Bmcast_net.Packet.payload += Announce of msg

let send port ~dst m =
  Bmcast_net.Fabric.send port ~dst ~size_bytes:(wire_size m) (Announce m)
