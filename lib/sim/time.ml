type t = int

let zero = 0
let ns x = x
let us x = x * 1_000
let ms x = x * 1_000_000
let sec x = x * 1_000_000_000
let of_sec_f s = int_of_float (Float.round (s *. 1e9))
let of_us_f u = int_of_float (Float.round (u *. 1e3))
let to_sec_f t = float_of_int t /. 1e9
let to_ms_f t = float_of_int t /. 1e6
let to_us_f t = float_of_int t /. 1e3
let add = ( + )
let sub = ( - )
(* Specialised to [int] so they compile to a compare and a branch
   rather than a call into the polymorphic comparison. *)
let max (a : t) b = if a >= b then a else b
let min (a : t) b = if a <= b then a else b
let mul_f t k = int_of_float (Float.round (float_of_int t *. k))

let pp fmt t =
  if t < 1_000 then Format.fprintf fmt "%dns" t
  else if t < 1_000_000 then Format.fprintf fmt "%.2fus" (to_us_f t)
  else if t < 1_000_000_000 then Format.fprintf fmt "%.2fms" (to_ms_f t)
  else Format.fprintf fmt "%.3fs" (to_sec_f t)

let to_string t = Format.asprintf "%a" pp t
