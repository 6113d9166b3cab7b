(* Median and quartiles of a sample, computed as Python's
   [statistics.quantiles(data, n=4)] does (its default "exclusive"
   method), so the numbers printed here match an external check of the
   same samples. *)

type t = { n : int; median : float; q1 : float; q3 : float }

let sorted l =
  let a = Array.of_list l in
  Array.sort Float.compare a;
  a

let median_of_sorted a =
  let n = Array.length a in
  if n = 0 then Float.nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let median l = median_of_sorted (sorted l)

(* Cut point [i] of [parts]: interpolate at position i·(n+1)/parts,
   clamped to the sample's ends. *)
let quantile a ~parts i =
  let n = Array.length a in
  if n = 1 then a.(0)
  else
    let m = n + 1 in
    let j = max 1 (min (n - 1) (i * m / parts)) in
    let delta = (i * m) - (j * parts) in
    ((a.(j - 1) *. float_of_int (parts - delta)) +. (a.(j) *. float_of_int delta))
    /. float_of_int parts

let of_list l =
  let a = sorted l in
  let n = Array.length a in
  if n = 0 then { n; median = Float.nan; q1 = Float.nan; q3 = Float.nan }
  else
    { n;
      median = median_of_sorted a;
      q1 = quantile a ~parts:4 1;
      q3 = quantile a ~parts:4 3 }

(* Spread as a share of the median: the quantity the bounds are
   checked against. *)
let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median
