(* Array-backed FIFO with power-of-two capacity, used for mailbox items
   and parked-waiter queues: pushing allocates nothing in the steady
   state, unlike [Queue.t]'s cell per element, which at millions of
   frame hand-offs per run is real money. A popped slot is cleared, so
   a ring keeps no value alive after handing it out: a background
   copy's FIFO would otherwise hold the sector arrays of chunks it has
   already written for as long as the FIFO lives. *)
type 'a t = { mutable arr : 'a array; mutable head : int; mutable tail : int }

(* Vacant slots hold an immediate that is never read back as an ['a]:
   only slots in [head, tail) are dereferenced. Growing from it, not
   from a pushed value, keeps the array uniform, so a ring of floats
   stores them boxed and the clearing store in [pop] stays valid. *)
let vacant () : 'a = Obj.magic 0

let create () = { arr = [||]; head = 0; tail = 0 }
let length t = t.tail - t.head
let is_empty t = t.head = t.tail

let push t v =
  let n = Array.length t.arr in
  if t.tail - t.head = n then begin
    (* Full (or empty [||]): regrow, compacting to the front. *)
    let n' = max 8 (2 * n) in
    let a = Array.make n' (vacant ()) in
    for i = 0 to n - 1 do
      a.(i) <- t.arr.((t.head + i) land (n - 1))
    done;
    t.arr <- a;
    t.head <- 0;
    t.tail <- n
  end;
  t.arr.(t.tail land (Array.length t.arr - 1)) <- v;
  t.tail <- t.tail + 1

exception Empty

let pop t =
  if t.head = t.tail then raise Empty;
  let i = t.head land (Array.length t.arr - 1) in
  let v = t.arr.(i) in
  t.arr.(i) <- vacant ();
  t.head <- t.head + 1;
  v

let peek t =
  if t.head = t.tail then raise Empty;
  t.arr.(t.head land (Array.length t.arr - 1))
