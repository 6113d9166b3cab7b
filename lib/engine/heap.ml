type 'a entry = { time : Time.t; seq : int; value : 'a }

type 'a t = {
  mutable arr : 'a entry option array;
  mutable len : int;
  mutable next_seq : int;
}

let create () = { arr = Array.make 64 None; len = 0; next_seq = 0 }

let entry_lt a b = a.time < b.time || (a.time = b.time && a.seq < b.seq)

let get h i =
  match h.arr.(i) with
  | Some e -> e
  | None -> assert false

let grow h =
  let arr = Array.make (2 * Array.length h.arr) None in
  Array.blit h.arr 0 arr 0 h.len;
  h.arr <- arr

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if entry_lt (get h i) (get h parent) then begin
      let tmp = h.arr.(i) in
      h.arr.(i) <- h.arr.(parent);
      h.arr.(parent) <- tmp;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.len && entry_lt (get h l) (get h !smallest) then smallest := l;
  if r < h.len && entry_lt (get h r) (get h !smallest) then smallest := r;
  if !smallest <> i then begin
    let tmp = h.arr.(i) in
    h.arr.(i) <- h.arr.(!smallest);
    h.arr.(!smallest) <- tmp;
    sift_down h !smallest
  end

let push h time value =
  if h.len = Array.length h.arr then grow h;
  let seq = h.next_seq in
  h.next_seq <- seq + 1;
  h.arr.(h.len) <- Some { time; seq; value };
  h.len <- h.len + 1;
  sift_up h (h.len - 1)

let pop h =
  if h.len = 0 then None
  else begin
    let top = get h 0 in
    h.len <- h.len - 1;
    h.arr.(0) <- h.arr.(h.len);
    h.arr.(h.len) <- None;
    if h.len > 0 then sift_down h 0;
    Some (top.time, top.value)
  end

let peek_time h = if h.len = 0 then None else Some (get h 0).time

let peek h =
  if h.len = 0 then None
  else begin
    let top = get h 0 in
    Some (top.time, top.value)
  end
let size h = h.len
let is_empty h = h.len = 0
