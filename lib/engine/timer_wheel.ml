(* Hierarchical timer wheel over a preallocated event pool.

   Layout: [levels] wheels of 256 slots each; level k indexes byte k of
   the absolute timestamp. An event at time [t] lives at the highest
   level where [t] still differs from the cursor [cur]
   (level = byte index of the top nonzero byte of [t lxor cur]), so
   level 0 slots hold exactly one timestamp and higher-level slots hold
   up to 256^k of them. When the cursor enters a higher-level slot its
   chain cascades down one or more levels; a slot being entered is
   always empty before the cascade, so chains never need merging and
   FIFO order for equal timestamps is preserved structurally (chains
   only ever append, and every redistribution keeps relative order).

   Events outside the wheel horizon — more than 256^levels ns ahead of
   the cursor, or behind it (the peek-then-park pattern in
   [Sim.run ~until] advances the cursor without popping) — ride the
   engine's [Heap] and are compared head-to-head at pop time; forward
   overflow is promoted in bulk once the wheel drains.

   The pool is a set of parallel arrays threaded by a free list, so a
   schedule/fire cycle allocates nothing once the pool has grown to the
   peak pending-event count. *)

type token = int

let slots = 256 (* per level: 8 bits of the timestamp *)
let words = 8 (* occupancy bitmap words per level, 32 slots each *)
let token_bits = 24 (* pool index bits in a token; the rest is gen *)
let max_pool = 1 lsl token_bits

type 'a t = {
  levels : int;
  horizon : int; (* 256^levels *)
  dummy : 'a;
  (* event pool: parallel arrays + free list through [nexts] *)
  mutable times : int array;
  mutable seqs : int array;
  mutable payloads : 'a array;
  mutable nexts : int array; (* slot chain link / free-list link; -1 end *)
  mutable gens : int array; (* bumped on reclaim; stale-token guard *)
  mutable canceled : Bytes.t;
  mutable cap : int;
  mutable free : int; (* free-list head, -1 when pool exhausted *)
  mutable next_seq : int;
  (* wheel *)
  heads : int array; (* levels*slots chain heads, -1 empty *)
  tails : int array;
  bits : int array; (* levels*words occupancy words *)
  mutable cur : int; (* cursor: time of the last event served *)
  mutable live : int;
  far : int Heap.t; (* overflow + behind-cursor tier; payload = pool idx *)
  (* cached minimum, invalidated by any potentially-earlier mutation *)
  mutable min_valid : bool;
  mutable min_src : int; (* 0 = level-0 slot [min_slot], 1 = far heap *)
  mutable min_slot : int;
  mutable min_time : int;
  (* stats *)
  mutable n_cascaded : int;
  mutable n_far : int;
  mutable n_promoted : int;
}

type stats = { cascaded : int; far_pushed : int; promoted : int }

let no_time = max_int

(* de Bruijn count-trailing-zeros for 32-bit words *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8;
     31; 27; 13; 23; 21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let ctz32 x = Array.unsafe_get ctz_table (((x land -x) * 0x077CB531) lsr 27 land 31)

let create ?(levels = 6) ~dummy () =
  let levels = max 1 (min 7 levels) in
  let cap = 1024 in
  let nexts = Array.init cap (fun i -> if i = cap - 1 then -1 else i + 1) in
  {
    levels;
    horizon = 1 lsl (8 * levels);
    dummy;
    times = Array.make cap 0;
    seqs = Array.make cap 0;
    payloads = Array.make cap dummy;
    nexts;
    gens = Array.make cap 0;
    canceled = Bytes.make cap '\000';
    cap;
    free = 0;
    next_seq = 0;
    heads = Array.make (levels * slots) (-1);
    tails = Array.make (levels * slots) (-1);
    bits = Array.make (levels * words) 0;
    cur = 0;
    live = 0;
    far = Heap.create ();
    min_valid = false;
    min_src = -1;
    min_slot = 0;
    min_time = 0;
    n_cascaded = 0;
    n_far = 0;
    n_promoted = 0;
  }

let size t = t.live
let is_empty t = t.live = 0
let stats t = { cascaded = t.n_cascaded; far_pushed = t.n_far; promoted = t.n_promoted }

let grow t =
  let cap' = min (t.cap * 2) max_pool in
  if cap' = t.cap then invalid_arg "Timer_wheel: event pool exhausted";
  let extend a fill =
    let a' = Array.make cap' fill in
    Array.blit a 0 a' 0 t.cap;
    a'
  in
  t.times <- extend t.times 0;
  t.seqs <- extend t.seqs 0;
  t.payloads <- extend t.payloads t.dummy;
  t.gens <- extend t.gens 0;
  let nexts' = Array.make cap' (-1) in
  Array.blit t.nexts 0 nexts' 0 t.cap;
  for i = t.cap to cap' - 1 do
    nexts'.(i) <- (if i = cap' - 1 then -1 else i + 1)
  done;
  t.nexts <- nexts';
  let c = Bytes.make cap' '\000' in
  Bytes.blit t.canceled 0 c 0 t.cap;
  t.canceled <- c;
  t.free <- t.cap;
  t.cap <- cap'

let alloc t =
  if t.free = -1 then grow t;
  let idx = t.free in
  t.free <- t.nexts.(idx);
  idx

(* Return a fired/cancelled pool entry to the free list; its generation
   bump is what invalidates outstanding tokens. *)
let reclaim t idx =
  t.gens.(idx) <- t.gens.(idx) + 1;
  Bytes.unsafe_set t.canceled idx '\000';
  t.payloads.(idx) <- t.dummy;
  t.nexts.(idx) <- t.free;
  t.free <- idx

let is_canceled t idx = Bytes.unsafe_get t.canceled idx = '\001'

(* Level of an event [d] = time lxor cur ahead of the cursor
   (precondition: 0 <= d < horizon). Top-level recursion: nested
   [let rec] closures capturing locals would allocate on every call,
   and this sits on the pop/push hot path. *)
let rec level_go d last k =
  if d < 1 lsl (8 * (k + 1)) || k = last then k else level_go d last (k + 1)

let level_of t d = level_go d (t.levels - 1) 0

let set_bit t level slot =
  let w = (level * words) + (slot lsr 5) in
  t.bits.(w) <- t.bits.(w) lor (1 lsl (slot land 31))

let clear_bit t level slot =
  let w = (level * words) + (slot lsr 5) in
  t.bits.(w) <- t.bits.(w) land lnot (1 lsl (slot land 31))

(* First occupied slot index >= [from] at [level], or -1. *)
let rec scan_go bits base from w first =
  if w = words then -1
  else begin
    let x = Array.unsafe_get bits (base + w) in
    let x = if first then x land (-1 lsl (from land 31)) else x in
    if x <> 0 then (w lsl 5) + ctz32 x else scan_go bits base from (w + 1) false
  end

let scan t level from =
  if from > slots - 1 then -1
  else scan_go t.bits (level * words) from (from lsr 5) true

let append_chain t level slot idx =
  let s = (level * slots) + slot in
  t.nexts.(idx) <- -1;
  let tl = t.tails.(s) in
  if tl = -1 then begin
    t.heads.(s) <- idx;
    t.tails.(s) <- idx;
    set_bit t level slot
  end
  else begin
    t.nexts.(tl) <- idx;
    t.tails.(s) <- idx
  end

(* Insert into the wheel proper.
   Precondition: times.(idx) >= cur && times.(idx) lxor cur < horizon. *)
let insert_wheel t idx =
  let d = t.times.(idx) lxor t.cur in
  let k = level_of t d in
  append_chain t k ((t.times.(idx) lsr (8 * k)) land (slots - 1)) idx

(* Cursor enters block [slot] of [level]: detach the chain and
   redistribute each entry one or more levels down. The destination
   slots are empty (lower levels are exhausted before the cursor moves
   up a block), and redistribution preserves chain order, so equal-time
   FIFO order survives structurally. *)
let rec cascade_chain t idx =
  if idx <> -1 then begin
    let nxt = t.nexts.(idx) in
    if is_canceled t idx then reclaim t idx
    else begin
      insert_wheel t idx;
      t.n_cascaded <- t.n_cascaded + 1
    end;
    cascade_chain t nxt
  end

let cascade t level slot =
  let s = (level * slots) + slot in
  let chain = t.heads.(s) in
  t.heads.(s) <- -1;
  t.tails.(s) <- -1;
  clear_bit t level slot;
  let mask_high = -1 lsl (8 * (level + 1)) in
  t.cur <- (t.cur land mask_high) lor (slot lsl (8 * level));
  cascade_chain t chain

(* Peek the far tier's live minimum, lazily reclaiming cancelled
   entries on the way (popping the top is fine for those, but a live top
   must stay put: re-pushing would give it a fresh heap sequence number
   and lose the FIFO tie against equal-time siblings). Returns the pool
   idx, or -1. *)
let rec far_top t =
  match Heap.peek t.far with
  | None -> -1
  | Some (_, idx) ->
    if is_canceled t idx then begin
      ignore (Heap.pop t.far);
      reclaim t idx;
      far_top t
    end
    else idx

(* Drain the far tier into the wheel: everything at or ahead of the new
   cursor and inside the horizon. Called with the wheel empty. *)
let rec promote t =
  match Heap.peek_time t.far with
  | Some tm when tm >= t.cur && tm lxor t.cur < t.horizon ->
    let _, idx = match Heap.pop t.far with Some e -> e | None -> assert false in
    if is_canceled t idx then reclaim t idx
    else begin
      insert_wheel t idx;
      t.n_promoted <- t.n_promoted + 1
    end;
    promote t
  | _ -> ()

(* Find the wheel's earliest live event, cascading as needed, and
   return its chain head's pool idx (-1 when the wheel tier is empty).
   Top-level mutual recursion, same allocation argument as [level_go]. *)
let rec wheel_min t =
  let s = scan t 0 (t.cur land (slots - 1)) in
  if s >= 0 then norm t s else wheel_up t 1

(* Normalize level-0 slot [s]: drop cancelled entries off the chain
   head. *)
and norm t s =
  let h = t.heads.(s) in
  if h = -1 then begin
    t.tails.(s) <- -1;
    clear_bit t 0 s;
    wheel_min t
  end
  else if is_canceled t h then begin
    t.heads.(s) <- t.nexts.(h);
    reclaim t h;
    norm t s
  end
  else h

and wheel_up t k =
  if k = t.levels then -1
  else begin
    let s = scan t k ((t.cur lsr (8 * k)) land (slots - 1)) in
    if s >= 0 then begin
      cascade t k s;
      wheel_min t
    end
    else wheel_up t (k + 1)
  end

(* Pick the overall minimum between the wheel tier and the far tier
   (a behind-cursor far entry wins; an equal-time one loses the FIFO
   tie on sequence number). Precondition: live > 0. *)
let rec settle t =
  let h = wheel_min t in
  if h >= 0 then begin
    let f = far_top t in
    if
      f >= 0
      && (t.times.(f) < t.times.(h)
         || (t.times.(f) = t.times.(h) && t.seqs.(f) < t.seqs.(h)))
    then begin
      t.min_src <- 1;
      t.min_time <- t.times.(f)
    end
    else begin
      t.min_src <- 0;
      t.min_slot <- t.times.(h) land (slots - 1);
      t.min_time <- t.times.(h)
    end
  end
  else begin
    let f = far_top t in
    if f < 0 then assert false (* live > 0 guarantees an event *)
    else if t.times.(f) < t.cur then begin
      (* behind-cursor backlog: serve straight from the heap *)
      t.min_src <- 1;
      t.min_time <- t.times.(f)
    end
    else begin
      t.cur <- t.times.(f);
      promote t;
      settle t
    end
  end

(* Establish the cached minimum. Precondition: live > 0. *)
let ensure_min t =
  if not t.min_valid then begin
    settle t;
    t.min_valid <- true
  end

(* Remove the minimum event from the structure and return its pool idx
   (not yet reclaimed — caller reads the fields first). *)
let take_min t =
  ensure_min t;
  t.min_valid <- false;
  if t.min_src = 1 then
    match Heap.pop t.far with
    | Some (_, idx) -> idx
    | None -> assert false
  else begin
    let s = t.min_slot in
    let h = t.heads.(s) in
    let nxt = t.nexts.(h) in
    t.heads.(s) <- nxt;
    if nxt = -1 then begin
      t.tails.(s) <- -1;
      clear_bit t 0 s
    end;
    t.cur <- t.times.(h);
    h
  end

let push t time v =
  if time < 0 then invalid_arg "Timer_wheel.push: negative time";
  let idx = alloc t in
  t.times.(idx) <- time;
  t.seqs.(idx) <- t.next_seq;
  t.next_seq <- t.next_seq + 1;
  t.payloads.(idx) <- v;
  if time >= t.cur && time lxor t.cur < t.horizon then insert_wheel t idx
  else begin
    Heap.push t.far time idx;
    t.n_far <- t.n_far + 1
  end;
  t.live <- t.live + 1;
  (* a later-or-equal event can never displace the cached minimum
     (equal time loses the FIFO tie), so keep the cache warm *)
  if t.min_valid && not (t.min_src >= 0 && time >= t.min_time) then t.min_valid <- false;
  (t.gens.(idx) lsl token_bits) lor idx

let cancel t tok =
  let idx = tok land (max_pool - 1) in
  let gen = tok lsr token_bits in
  if idx >= t.cap || t.gens.(idx) <> gen || is_canceled t idx then false
  else begin
    (* unlinking a singly-linked chain is O(n); mark instead and let the
       scan/cascade/promotion paths reclaim lazily *)
    Bytes.unsafe_set t.canceled idx '\001';
    t.live <- t.live - 1;
    t.min_valid <- false;
    true
  end

let next_time t =
  if t.live = 0 then no_time
  else begin
    ensure_min t;
    t.min_time
  end

let peek_time t = if t.live = 0 then None else Some (next_time t)

let pop_exn t =
  if t.live = 0 then invalid_arg "Timer_wheel.pop_exn: empty";
  let idx = take_min t in
  let v = t.payloads.(idx) in
  reclaim t idx;
  t.live <- t.live - 1;
  v

let pop t =
  if t.live = 0 then None
  else begin
    let idx = take_min t in
    let tm = t.times.(idx) in
    let v = t.payloads.(idx) in
    reclaim t idx;
    t.live <- t.live - 1;
    Some (tm, v)
  end
