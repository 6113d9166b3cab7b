(* Array-backed FIFO with power-of-two capacity, used for mailbox items
   and parked-waiter queues: pushing allocates nothing in the steady
   state, unlike [Queue.t]'s cell per element, which at millions of
   frame hand-offs per run is real money. Popped slots keep their stale
   reference until overwritten — callers for whom that retention matters
   (none today: frames are pooled, wakers are transient) can store an
   explicit dummy. *)
type 'a t = { mutable arr : 'a array; mutable head : int; mutable tail : int }

let create () = { arr = [||]; head = 0; tail = 0 }
let length t = t.tail - t.head
let is_empty t = t.head = t.tail

let push t v =
  let n = Array.length t.arr in
  if t.tail - t.head = n then begin
    (* Full (or empty [||]): regrow, compacting to the front. The pushed
       value doubles as the [Array.make] filler so no dummy is needed. *)
    let n' = max 8 (2 * n) in
    let a = Array.make n' v in
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
  let v = t.arr.(t.head land (Array.length t.arr - 1)) in
  t.head <- t.head + 1;
  v
