(* 4-ary min-heap over unboxed keys.

   Entry i of the heap is two immediates in one [int] array: its time at
   [2i] and its key at [2i + 1], where the key packs the insertion
   sequence number above the index of the payload's cell in a
   free-listed pool. Keys order equal times by insertion, since the pool
   index only fills the low bits of keys whose sequence numbers already
   differ. Sifting moves only immediates, so it never runs the write
   barrier, and the four children of an entry sit in one 64-byte run of
   the array. A push/pop cycle allocates nothing once the arrays have
   grown to the peak size. A payload is written once when pushed and
   cleared when popped, so the queue does not keep it alive. *)

type 'a t = {
  mutable a : int array;  (* entry i: time at 2i, key at 2i + 1 *)
  mutable payloads : 'a array;  (* pool, indexed by the key's low bits *)
  mutable free : int array;  (* free pool cells: a stack of [cap - len] *)
  mutable len : int;
  mutable next_seq : int;
}

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* Sequence numbers fill the key's remaining 38 bits. *)
let max_seq = 1 lsl (Sys.int_size - 1 - slot_bits)
let no_time = max_int

(* Vacant pool cells hold an immediate that is never read back as an
   ['a]: only cells of queued entries are dereferenced. Building the
   pool from an immediate also keeps it a uniform array, so a float
   payload is stored boxed like any other value. *)
let vacant () : 'a = Obj.magic 0

let initial_cap = 64

let create () =
  { a = Array.make (2 * initial_cap) 0;
    payloads = Array.make initial_cap (vacant ());
    free = Array.init initial_cap (fun i -> initial_cap - 1 - i);
    len = 0;
    next_seq = 0 }

let size h = h.len
let is_empty h = h.len = 0

let grow h =
  let cap = Array.length h.payloads in
  let cap' = 2 * cap in
  if cap' > 1 lsl slot_bits then invalid_arg "Heap: too many queued events";
  let a = Array.make (2 * cap') 0 in
  Array.blit h.a 0 a 0 (2 * cap);
  h.a <- a;
  let p = Array.make cap' (vacant ()) in
  Array.blit h.payloads 0 p 0 cap;
  h.payloads <- p;
  (* The heap is full, so every old cell is in use: the new ones are
     the free set. *)
  h.free <- Array.init cap' (fun i -> cap' - 1 - i)

(* Sift up from the hole at entry [i]; returns where [time] belongs. A
   new entry has the largest key, so among equal times it already sorts
   last: only a strictly later parent moves down. *)
let rec sift_up (a : int array) i (time : int) =
  if i = 0 then 0
  else
    let p = (i - 1) lsr 2 in
    let tp = Array.unsafe_get a (2 * p) in
    if time < tp then begin
      Array.unsafe_set a (2 * i) tp;
      Array.unsafe_set a ((2 * i) + 1) (Array.unsafe_get a ((2 * p) + 1));
      sift_up a p time
    end
    else i

let push h time v =
  let len = h.len in
  if len = Array.length h.payloads then grow h;
  let seq = h.next_seq in
  if seq = max_seq then invalid_arg "Heap: sequence numbers exhausted";
  h.next_seq <- seq + 1;
  let slot = Array.unsafe_get h.free (Array.length h.payloads - len - 1) in
  Array.unsafe_set h.payloads slot v;
  let a = h.a in
  let i = sift_up a len time in
  Array.unsafe_set a (2 * i) time;
  Array.unsafe_set a ((2 * i) + 1) ((seq lsl slot_bits) lor slot);
  h.len <- len + 1

(* Sift (time, key) down from the hole at array index [i2] of a heap
   whose entries end at array index [n2]. *)
let rec sift_down (a : int array) n2 i2 (time : int) (key : int) =
  let c = (4 * i2) + 2 in
  if c >= n2 then begin
    Array.unsafe_set a i2 time;
    Array.unsafe_set a (i2 + 1) key
  end
  else begin
    (* The smallest of up to four children. *)
    let m = ref c in
    let mt = ref (Array.unsafe_get a c) in
    let mk = ref (Array.unsafe_get a (c + 1)) in
    let last = if c + 6 < n2 then c + 6 else n2 - 2 in
    let j = ref (c + 2) in
    while !j <= last do
      let tj = Array.unsafe_get a !j in
      if tj < !mt || (tj = !mt && Array.unsafe_get a (!j + 1) < !mk) then begin
        m := !j;
        mt := tj;
        mk := Array.unsafe_get a (!j + 1)
      end;
      j := !j + 2
    done;
    if !mt < time || (!mt = time && !mk < key) then begin
      Array.unsafe_set a i2 !mt;
      Array.unsafe_set a (i2 + 1) !mk;
      sift_down a n2 !m time key
    end
    else begin
      Array.unsafe_set a i2 time;
      Array.unsafe_set a (i2 + 1) key
    end
  end

let next_time h = if h.len = 0 then no_time else Array.unsafe_get h.a 0

let pop_exn h =
  if h.len = 0 then invalid_arg "Heap.pop_exn: empty";
  let a = h.a in
  let slot = Array.unsafe_get a 1 land slot_mask in
  let v = Array.unsafe_get h.payloads slot in
  Array.unsafe_set h.payloads slot (vacant ());
  let n = h.len - 1 in
  Array.unsafe_set h.free (Array.length h.payloads - n - 1) slot;
  h.len <- n;
  if n > 0 then
    sift_down a (2 * n) 0
      (Array.unsafe_get a (2 * n))
      (Array.unsafe_get a ((2 * n) + 1));
  v

let pop h =
  if h.len = 0 then None
  else begin
    let time = h.a.(0) in
    Some (time, pop_exn h)
  end

let peek_time h = if h.len = 0 then None else Some h.a.(0)

let peek h =
  if h.len = 0 then None
  else Some (h.a.(0), h.payloads.(h.a.(1) land slot_mask))
