(* Extent [k < n] maps [starts.(k), starts.(k) + lens.(k)) to
   [vals.(k)]. Extents are sorted, never empty and never overlap, so
   their ends ascend too; neighbours that touch never share a value.
   Slots from [n] on are spare. *)
type t = {
  mutable starts : int array;
  mutable lens : int array;
  mutable vals : int array;
  mutable n : int;
}

let create () = { starts = [||]; lens = [||]; vals = [||]; n = 0 }

let check_range ~lba ~count =
  if lba < 0 then invalid_arg "Extent_map: negative lba";
  if count <= 0 then invalid_arg "Extent_map: count must be positive"

let end_of t k = t.starts.(k) + t.lens.(k)

(* The first extent ending after [lba] ([n] if none): the one holding
   [lba], or else the first one after it. *)
let first_ending_after t lba =
  let lo = ref 0 and hi = ref t.n in
  while !lo < !hi do
    let mid = (!lo + !hi) lsr 1 in
    if end_of t mid > lba then hi := mid else lo := mid + 1
  done;
  !lo

(* The first extent from [k] on starting at or after [lba]. *)
let first_starting_from t k lba =
  let k = ref k in
  while !k < t.n && t.starts.(!k) < lba do
    incr k
  done;
  !k

(* Arrays are copied and shifted by plain loops: [Array.blit] runs the
   write barrier per element on a major-heap array, even an int one. *)
let grow t need =
  let cap = Int.max need (Int.max 8 (2 * Array.length t.starts)) in
  let copy a =
    let b = Array.make cap 0 in
    for k = 0 to t.n - 1 do
      b.(k) <- a.(k)
    done;
    b
  in
  t.starts <- copy t.starts;
  t.lens <- copy t.lens;
  t.vals <- copy t.vals

let move t ~src ~dst =
  t.starts.(dst) <- t.starts.(src);
  t.lens.(dst) <- t.lens.(src);
  t.vals.(dst) <- t.vals.(src)

(* Replace extents [lo, hi) by [slots] slots at [lo] for the caller to
   [put]. *)
let splice t ~lo ~hi slots =
  let shift = slots - (hi - lo) in
  if t.n + shift > Array.length t.starts then grow t (t.n + shift);
  if shift > 0 then
    for k = t.n - 1 downto hi do
      move t ~src:k ~dst:(k + shift)
    done
  else if shift < 0 then
    for k = hi to t.n - 1 do
      move t ~src:k ~dst:(k + shift)
    done;
  t.n <- t.n + shift

let put t k ~start ~stop v =
  t.starts.(k) <- start;
  t.lens.(k) <- stop - start;
  t.vals.(k) <- v

let clear_range t ~lba ~count =
  check_range ~lba ~count;
  let fin = lba + count in
  let i = first_ending_after t lba in
  let j = first_starting_from t i fin in
  if i < j then begin
    let l_start = t.starts.(i) and l_val = t.vals.(i) in
    let r_stop = end_of t (j - 1) and r_val = t.vals.(j - 1) in
    let keep_left = l_start < lba and keep_right = r_stop > fin in
    splice t ~lo:i ~hi:j (Bool.to_int keep_left + Bool.to_int keep_right);
    if keep_left then put t i ~start:l_start ~stop:lba l_val;
    if keep_right then
      put t (i + Bool.to_int keep_left) ~start:fin ~stop:r_stop r_val
  end

let set t ~lba ~count v =
  check_range ~lba ~count;
  let fin = lba + count in
  let i = first_ending_after t lba in
  let j = first_starting_from t i fin in
  (* Extents [i, j) overlap the range. The parts of the first and the
     last that stick out of it stay as extents of their own, or join
     the new one when they hold [v] too. *)
  let l_start = if i < j then Int.min lba t.starts.(i) else lba in
  let l_val = if i < j then t.vals.(i) else v in
  let r_stop = if i < j then Int.max fin (end_of t (j - 1)) else fin in
  let r_val = if i < j then t.vals.(j - 1) else v in
  let keep_left = l_start < lba && l_val <> v in
  let keep_right = r_stop > fin && r_val <> v in
  (* A neighbour touching the range with [v] joins it as well. *)
  let merge_prev =
    l_start = lba && i > 0 && end_of t (i - 1) = lba && t.vals.(i - 1) = v
  in
  let merge_next =
    r_stop = fin && j < t.n && t.starts.(j) = fin && t.vals.(j) = v
  in
  let start =
    if merge_prev then t.starts.(i - 1) else if keep_left then lba else l_start
  in
  let stop =
    if merge_next then end_of t j else if keep_right then fin else r_stop
  in
  let lo = if merge_prev then i - 1 else i in
  splice t ~lo
    ~hi:(if merge_next then j + 1 else j)
    (1 + Bool.to_int keep_left + Bool.to_int keep_right);
  if keep_left then put t lo ~start:l_start ~stop:lba l_val;
  let k = lo + Bool.to_int keep_left in
  put t k ~start ~stop v;
  if keep_right then put t (k + 1) ~start:fin ~stop:r_stop r_val

let get t lba =
  let k = first_ending_after t lba in
  if k < t.n && t.starts.(k) <= lba then Some t.vals.(k) else None

let iter_range t ~lba ~count x ~f =
  check_range ~lba ~count;
  let fin = lba + count in
  let k = ref (first_ending_after t lba) in
  while !k < t.n && t.starts.(!k) < fin do
    let start = Int.max lba t.starts.(!k) in
    f x ~off:(start - lba) ~lba:start
      ~count:(Int.min fin (end_of t !k) - start)
      t.vals.(!k);
    incr k
  done

let extent_count t = t.n

let covered t =
  let total = ref 0 in
  for k = 0 to t.n - 1 do
    total := !total + t.lens.(k)
  done;
  !total

let covered_range t ~lba ~count =
  check_range ~lba ~count;
  let fin = lba + count in
  let k = ref (first_ending_after t lba) and total = ref 0 in
  while !k < t.n && t.starts.(!k) < fin do
    total := !total + Int.min fin (end_of t !k) - Int.max lba t.starts.(!k);
    incr k
  done;
  !total
