(* Measurement collectors. Timestamps are integer nanoseconds of
   virtual time (the representation of [Bmcast_engine.Time.t]); this
   module lives below the engine so the observability layer can build
   on it without a dependency cycle. *)

let ns_to_s x = float_of_int x /. 1e9

(* Window attribution is half-open: timestamp [ts] belongs to window
   [floor(ts / width)], i.e. [k*width, (k+1)*width). An event landing
   exactly on a window edge [k*width] opens window [k] — it is never
   counted in window [k-1]. Floor (not truncating) division keeps that
   contract for timestamps before the epoch too. *)
let window_index ts ~width =
  if ts >= 0 then ts / width else ((ts + 1) / width) - 1

module Dynarray = struct
  type t = { mutable arr : float array; mutable len : int }

  let create () = { arr = Array.make 64 0.0; len = 0 }

  let push t v =
    if t.len = Array.length t.arr then begin
      let arr = Array.make (2 * t.len) 0.0 in
      Array.blit t.arr 0 arr 0 t.len;
      t.arr <- arr
    end;
    t.arr.(t.len) <- v;
    t.len <- t.len + 1

  let sorted_copy t =
    let a = Array.sub t.arr 0 t.len in
    Array.sort Float.compare a;
    a
end

(* Log-bucketed bounded histogram (HDR-style). Buckets grow
   geometrically by [gamma]; a bucket's representative value is its
   geometric midpoint, so any sample inside the covered range
   [range_lo, range_hi) is reported with relative error at most
   [sqrt gamma - 1] (~1% for gamma = 1.02). Memory is a fixed array of
   [nbuckets] counts regardless of sample count — the collector for
   hot-path metrics at 10k-machine scale, where storing every sample is
   unbounded. Zero/negative/tiny samples land in a dedicated underflow
   bucket represented by the exact tracked minimum (overflow likewise
   by the maximum), so boot-latency distributions that touch 0 keep
   exact edges. *)
module Bounded = struct
  let gamma = 1.02
  let log_gamma = Stdlib.log gamma
  let range_lo = 1e-9
  let interior = 2800 (* covers range_lo * gamma^2800 ~ 1.2e15 *)
  let nbuckets = interior + 2 (* + underflow and overflow *)
  let range_hi = range_lo *. Stdlib.exp (float_of_int interior *. log_gamma)
  let max_relative_error = sqrt gamma -. 1.0

  type t = {
    counts : int array;
    mutable n : int;
    mutable sum : float;
    mutable sumsq : float;
    mutable minv : float;
    mutable maxv : float;
  }

  let create () =
    { counts = Array.make nbuckets 0;
      n = 0;
      sum = 0.0;
      sumsq = 0.0;
      minv = infinity;
      maxv = neg_infinity }

  let index v =
    if not (v >= range_lo) then 0 (* underflow; also catches NaN *)
    else if v >= range_hi then nbuckets - 1
    else
      let i = 1 + int_of_float (Stdlib.log (v /. range_lo) /. log_gamma) in
      Stdlib.min (nbuckets - 2) (Stdlib.max 1 i)

  (* Geometric midpoint of an interior bucket. *)
  let representative t i =
    if i = 0 then t.minv
    else if i = nbuckets - 1 then t.maxv
    else
      let v =
        range_lo *. Stdlib.exp ((float_of_int (i - 1) +. 0.5) *. log_gamma)
      in
      Stdlib.min t.maxv (Stdlib.max t.minv v)

  let add t v =
    t.counts.(index v) <- t.counts.(index v) + 1;
    t.n <- t.n + 1;
    t.sum <- t.sum +. v;
    t.sumsq <- t.sumsq +. (v *. v);
    if v < t.minv then t.minv <- v;
    if v > t.maxv then t.maxv <- v

  let count t = t.n
  let mean t = if t.n = 0 then 0.0 else t.sum /. float_of_int t.n

  let stddev t =
    if t.n < 2 then 0.0
    else
      let m = mean t in
      sqrt (Float.max 0.0 ((t.sumsq /. float_of_int t.n) -. (m *. m)))

  (* Value of the 0-based order statistic [k] (bucket representative). *)
  let value_at t k =
    let rec walk i seen =
      if i >= nbuckets then t.maxv
      else
        let seen = seen + t.counts.(i) in
        if k < seen then representative t i else walk (i + 1) seen
    in
    walk 0 0

  (* Same rank convention as the exact histogram: linear interpolation
     between adjacent order statistics, so p=0 is the (exact) minimum
     and p=100 the (exact) maximum. *)
  let percentile t p =
    if t.n = 0 then invalid_arg "Bounded.percentile: empty";
    if p <= 0.0 then t.minv
    else if p >= 100.0 then t.maxv
    else
      let rank = p /. 100.0 *. float_of_int (t.n - 1) in
      let lo = int_of_float rank in
      let hi = Stdlib.min (t.n - 1) (lo + 1) in
      let frac = rank -. float_of_int lo in
      let vlo = value_at t lo in
      let vhi = if hi = lo then vlo else value_at t hi in
      vlo +. (frac *. (vhi -. vlo))

end

module Histogram = struct
  type t = {
    samples : Dynarray.t;
    mutable sorted : float array option; (* invalidated on add *)
    mutable sum : float;
    mutable sumsq : float;
    mutable minv : float;
    mutable maxv : float;
    exact_limit : int;
    mutable bucketed : Bounded.t option; (* Some once spilled *)
  }

  let default_exact_limit = 8192

  let create ?(exact_limit = default_exact_limit) () =
    if exact_limit < 1 then
      invalid_arg "Histogram.create: exact_limit must be >= 1";
    { samples = Dynarray.create ();
      sorted = None;
      sum = 0.0;
      sumsq = 0.0;
      minv = infinity;
      maxv = neg_infinity;
      exact_limit;
      bucketed = None }

  let is_exact t = t.bucketed = None

  (* Past the exact limit, fold the stored samples (in insertion order,
     so the scalar accumulators replay bit-identically) into bounded
     buckets and drop the sample array: memory stops growing with the
     sample count at the cost of ~1% percentile error. *)
  let spill t =
    let b = Bounded.create () in
    for i = 0 to t.samples.Dynarray.len - 1 do
      Bounded.add b t.samples.Dynarray.arr.(i)
    done;
    t.samples.Dynarray.arr <- Array.make 64 0.0;
    t.samples.Dynarray.len <- 0;
    t.sorted <- None;
    t.bucketed <- Some b

  let add_bucketed t b v =
    Bounded.add b v;
    t.minv <- b.Bounded.minv;
    t.maxv <- b.Bounded.maxv

  let add t v =
    match t.bucketed with
    | Some b -> add_bucketed t b v
    | None ->
      if t.samples.Dynarray.len >= t.exact_limit then begin
        spill t;
        match t.bucketed with
        | Some b -> add_bucketed t b v
        | None -> assert false
      end
      else begin
        Dynarray.push t.samples v;
        t.sorted <- None;
        t.sum <- t.sum +. v;
        t.sumsq <- t.sumsq +. (v *. v);
        if v < t.minv then t.minv <- v;
        if v > t.maxv then t.maxv <- v
      end

  let count t =
    match t.bucketed with
    | Some b -> Bounded.count b
    | None -> t.samples.Dynarray.len

  let mean t =
    match t.bucketed with
    | Some b -> Bounded.mean b
    | None ->
      let n = count t in
      if n = 0 then 0.0 else t.sum /. float_of_int n

  let stddev t =
    match t.bucketed with
    | Some b -> Bounded.stddev b
    | None ->
      let n = count t in
      if n < 2 then 0.0
      else
        let m = mean t in
        sqrt (Float.max 0.0 ((t.sumsq /. float_of_int n) -. (m *. m)))

  let min t = t.minv
  let max t = t.maxv

  let sorted t =
    match t.sorted with
    | Some a -> a
    | None ->
      let a = Dynarray.sorted_copy t.samples in
      t.sorted <- Some a;
      a

  let percentile t p =
    match t.bucketed with
    | Some b -> Bounded.percentile b p
    | None ->
      let a = sorted t in
      let n = Array.length a in
      if n = 0 then invalid_arg "Histogram.percentile: empty";
      if p <= 0.0 then a.(0)
      else if p >= 100.0 then a.(n - 1)
      else
        let rank = p /. 100.0 *. float_of_int (n - 1) in
        let lo = int_of_float (Float.of_int (int_of_float rank)) in
        let hi = Stdlib.min (n - 1) (lo + 1) in
        let frac = rank -. float_of_int lo in
        a.(lo) +. (frac *. (a.(hi) -. a.(lo)))

  let percentile_opt t p = if count t = 0 then None else Some (percentile t p)

  let median t = percentile t 50.0

  let clear t =
    t.samples.Dynarray.len <- 0;
    t.sorted <- None;
    t.sum <- 0.0;
    t.sumsq <- 0.0;
    t.minv <- infinity;
    t.maxv <- neg_infinity;
    t.bucketed <- None
end

module Rate = struct
  (* Events as parallel growable arrays: [times.(i)] carries weight
     [weights.(i)] for [i < len]. *)
  type t = {
    mutable times : int array;
    mutable weights : float array;
    mutable len : int;
    mutable total : float;
  }

  let create () =
    { times = Array.make 64 0; weights = Array.make 64 0.0; len = 0;
      total = 0.0 }

  let add t time w =
    if t.len = Array.length t.times then begin
      let times = Array.make (2 * t.len) 0 in
      let weights = Array.make (2 * t.len) 0.0 in
      Array.blit t.times 0 times 0 t.len;
      Array.blit t.weights 0 weights 0 t.len;
      t.times <- times;
      t.weights <- weights
    end;
    t.times.(t.len) <- time;
    t.weights.(t.len) <- w;
    t.len <- t.len + 1;
    t.total <- t.total +. w

  let total t = t.total
  let count t = t.len

  let rate_between t t0 t1 =
    if t1 <= t0 then 0.0
    else begin
      let sum = ref 0.0 in
      for i = 0 to t.len - 1 do
        let ts = t.times.(i) in
        if ts >= t0 && ts < t1 then sum := !sum +. t.weights.(i)
      done;
      !sum /. ns_to_s (t1 - t0)
    end

  let per_window t ~width =
    if width <= 0 then invalid_arg "Rate.per_window: width must be positive";
    if t.len = 0 then []
    else begin
      let tbl = Hashtbl.create 64 in
      let first = ref max_int and last = ref min_int in
      for i = 0 to t.len - 1 do
        let b = window_index t.times.(i) ~width in
        if b < !first then first := b;
        if b > !last then last := b;
        let sum = Option.value (Hashtbl.find_opt tbl b) ~default:0.0 in
        Hashtbl.replace tbl b (sum +. t.weights.(i))
      done;
      let w_s = ns_to_s width in
      let rec build b acc =
        if b < !first then acc
        else
          let sum = Option.value (Hashtbl.find_opt tbl b) ~default:0.0 in
          build (b - 1) ((b * width, sum /. w_s) :: acc)
      in
      build !last []
    end
end
