(* Splitmix64, with the 64-bit state held as two untagged 32-bit
   halves. A [mutable state : int64] field re-boxes the state on every
   draw (plus one box for the mixed result), which at one-plus draw per
   simulator event is a top allocation site; splitting the state into
   two immediate ints and keeping every [Int64] value let-bound inside
   a single function body lets the native compiler unbox the whole
   advance+mix pipeline, so [int]/[bool]/[float] draws allocate nothing
   (beyond [float]'s boxed result). The advance+mix code is deliberately
   duplicated in each draw function: routing it through a shared helper
   would re-box the int64 at the call boundary. The generated sequence
   is bit-identical to the boxed implementation. *)
type t = { mutable hi : int; mutable lo : int }
(* invariant: 0 <= hi < 2^32, 0 <= lo < 2^32; state = hi << 32 | lo *)

let golden_gamma = 0x9E3779B97F4A7C15L

let mix64 z =
  let z = Int64.(mul (logxor z (shift_right_logical z 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.(logxor z (shift_right_logical z 31))

let of_state s =
  { hi = Int64.to_int (Int64.shift_right_logical s 32);
    lo = Int64.to_int (Int64.logand s 0xFFFFFFFFL) }

let state t =
  Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo)

let create seed = of_state (mix64 (Int64.of_int seed))

let bits64 t =
  let s = Int64.add (state t) golden_gamma in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s 0xFFFFFFFFL);
  mix64 s

let split t =
  let seed = bits64 t in
  of_state (mix64 seed)

(* Advance + mix + truncate in one body (see module comment). *)
let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      golden_gamma
  in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s 0xFFFFFFFFL);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  (* Use the top bits to avoid modulo bias in common small-bound cases;
     for simulation purposes modulo of a mixed 62-bit value is fine. *)
  let v = Int64.to_int (Int64.shift_right_logical z 2) in
  v mod bound

let int_in t lo hi =
  if hi < lo then invalid_arg "Prng.int_in: empty range";
  lo + int t (hi - lo + 1)

let float t bound =
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      golden_gamma
  in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s 0xFFFFFFFFL);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  let z = Int64.(logxor z (shift_right_logical z 31)) in
  (* 53 random bits -> [0,1) *)
  let v = Int64.to_int (Int64.shift_right_logical z 11) in
  bound *. (float_of_int v /. 9007199254740992.0)

let bool t =
  let s =
    Int64.add
      (Int64.logor (Int64.shift_left (Int64.of_int t.hi) 32) (Int64.of_int t.lo))
      golden_gamma
  in
  t.hi <- Int64.to_int (Int64.shift_right_logical s 32);
  t.lo <- Int64.to_int (Int64.logand s 0xFFFFFFFFL);
  let z = Int64.(mul (logxor s (shift_right_logical s 30)) 0xBF58476D1CE4E5B9L) in
  let z = Int64.(mul (logxor z (shift_right_logical z 27)) 0x94D049BB133111EBL) in
  Int64.to_int (Int64.logxor z (Int64.shift_right_logical z 31)) land 1 = 1

let bernoulli t p = float t 1.0 < p

let exponential t mean =
  let u = 1.0 -. float t 1.0 in
  -.mean *. log u

let gaussian t ~mu ~sigma =
  let u1 = 1.0 -. float t 1.0 in
  let u2 = float t 1.0 in
  mu +. (sigma *. sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2))

(* YCSB-style Zipfian generator (Gray et al., "Quickly generating
   billion-record synthetic databases").  Constants are recomputed per
   call only when [n] or [theta] change, cached in a small memo. *)
type zipf_consts = { zn : int; ztheta : float; zetan : float; zeta2 : float }

let zipf_cache : zipf_consts option ref = ref None

let zeta n theta =
  let sum = ref 0.0 in
  for i = 1 to n do
    sum := !sum +. (1.0 /. Float.pow (float_of_int i) theta)
  done;
  !sum

let zipf t ~n ~theta =
  if n <= 0 then invalid_arg "Prng.zipf: n must be positive";
  let consts =
    match !zipf_cache with
    | Some c when c.zn = n && c.ztheta = theta -> c
    | _ ->
      let c = { zn = n; ztheta = theta; zetan = zeta n theta; zeta2 = zeta 2 theta } in
      zipf_cache := Some c;
      c
  in
  let alpha = 1.0 /. (1.0 -. theta) in
  let eta =
    (1.0 -. Float.pow (2.0 /. float_of_int n) (1.0 -. theta))
    /. (1.0 -. (consts.zeta2 /. consts.zetan))
  in
  let u = float t 1.0 in
  let uz = u *. consts.zetan in
  if uz < 1.0 then 0
  else if uz < 1.0 +. Float.pow 0.5 theta then 1
  else
    let r =
      float_of_int n *. Float.pow ((eta *. u) -. eta +. 1.0) alpha
    in
    Stdlib.min (n - 1) (int_of_float r)

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
