(* 4-ary min-heap over unboxed keys, with values that share a timestamp
   grouped in one entry.

   Entry i of the heap is two immediates in one [int] array: its time at
   [2i] and its key at [2i + 1], where the key packs the entry's
   sequence number above the index of its first value's cell in a
   free-listed pool. Keys order equal times by entry creation, since the
   pool index only fills the low bits of keys whose sequence numbers
   already differ. Sifting moves only immediates, so it never runs the
   write barrier, and the four children of an entry sit in one 64-byte
   run of the array.

   The newest entry stays open while it is queued: a push at its time
   links the value behind the entry's last one through [links] instead
   of adding an entry. A pop takes the root entry's first value and
   sifts only when the entry runs out, and a drained newest entry is
   closed, so its recycled cells are never linked to again. Only the
   newest entry grows, so every value of an older entry at the same time
   was pushed before any value of a newer one: values still pop in
   (time, insertion) order.

   [links] also threads the free cells into a list, so a push reuses
   the cell the last pop freed. A push/pop cycle allocates nothing once
   the arrays have grown to the peak size. A payload is written once
   when pushed and cleared when popped, so the queue does not keep it
   alive. *)

type 'a t = {
  mutable a : int array;  (* entry i: time at 2i, key at 2i + 1 *)
  mutable payloads : 'a array;  (* pool, indexed by the key's low bits *)
  mutable links : int array;
      (* a queued cell's next cell in its entry, a free cell's next free
         cell; -1 ends either *)
  mutable free : int;  (* first free cell, or -1 when the pool is full *)
  mutable len : int;  (* queued values *)
  mutable entries : int;  (* heap entries, at most [len] *)
  mutable next_seq : int;
  mutable open_time : int;  (* time of the newest entry *)
  mutable open_tail : int;  (* its last cell, or -1 once it is closed *)
}

let slot_bits = 24
let slot_mask = (1 lsl slot_bits) - 1

(* Sequence numbers fill the key's remaining 38 bits. *)
let max_seq = 1 lsl (Sys.int_size - 1 - slot_bits)
let no_time = max_int

(* Vacant pool cells hold an immediate that is never read back as an
   ['a]: only cells of queued values are dereferenced. Building the
   pool from an immediate also keeps it a uniform array, so a float
   payload is stored boxed like any other value. *)
let vacant () : 'a = Obj.magic 0

let initial_cap = 64

(* Links of a free list through every cell of a [cap]-cell pool, in
   order. *)
let chain cap = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1)

let create () =
  { a = Array.make (2 * initial_cap) 0;
    payloads = Array.make initial_cap (vacant ());
    links = chain initial_cap;
    free = 0;
    len = 0;
    entries = 0;
    next_seq = 0;
    open_time = 0;
    open_tail = -1 }

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
  (* The pool is full, so every old cell is in use: the new ones are
     the free list. *)
  let l = chain cap' in
  Array.blit h.links 0 l 0 cap;
  h.links <- l;
  h.free <- cap

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
  if h.free < 0 then grow h;
  let links = h.links and slot = h.free in
  let tail = h.open_tail in
  if time = h.open_time && tail >= 0 then Array.unsafe_set links tail slot
  else begin
    let seq = h.next_seq in
    if seq = max_seq then invalid_arg "Heap: sequence numbers exhausted";
    h.next_seq <- seq + 1;
    let a = h.a and n = h.entries in
    let i = sift_up a n time in
    Array.unsafe_set a (2 * i) time;
    Array.unsafe_set a ((2 * i) + 1) ((seq lsl slot_bits) lor slot);
    h.entries <- n + 1;
    h.open_time <- time
  end;
  h.free <- Array.unsafe_get links slot;
  Array.unsafe_set links slot (-1);
  Array.unsafe_set h.payloads slot v;
  h.open_tail <- slot;
  h.len <- h.len + 1

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
  let key = Array.unsafe_get a 1 in
  let slot = key land slot_mask in
  let v = Array.unsafe_get h.payloads slot in
  Array.unsafe_set h.payloads slot (vacant ());
  h.len <- h.len - 1;
  let links = h.links in
  let next = Array.unsafe_get links slot in
  Array.unsafe_set links slot h.free;
  h.free <- slot;
  if next >= 0 then
    (* The entry's next value takes over the root: same time, same
       sequence number, so nothing moves. *)
    Array.unsafe_set a 1 (key lxor slot lor next)
  else begin
    (* Only the newest entry's last cell can be [open_tail]. *)
    if slot = h.open_tail then h.open_tail <- -1;
    let n = h.entries - 1 in
    h.entries <- n;
    if n > 0 then
      sift_down a (2 * n) 0
        (Array.unsafe_get a (2 * n))
        (Array.unsafe_get a ((2 * n) + 1))
  end;
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
