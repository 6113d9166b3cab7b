type t = int
type span = int

let zero = 0

let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let s x = x * 1_000_000_000
let minutes x = x * 60_000_000_000

let of_float_s x = int_of_float (Float.round (x *. 1e9))
let to_float_s x = float_of_int x /. 1e9
let to_float_ms x = float_of_int x /. 1e6
let to_float_us x = float_of_int x /. 1e3

let add a d = a + d
let diff a b = a - b
let mul d k = d * k
let div d k = d / k

let pp fmt t =
  let a = abs t in
  if a < 1_000 then Format.fprintf fmt "%dns" t
  else if a < 1_000_000 then Format.fprintf fmt "%.2fus" (to_float_us t)
  else if a < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_float_ms t)
  else Format.fprintf fmt "%.3fs" (to_float_s t)

let to_string t = Format.asprintf "%a" pp t
