(* Order statistics over a handful of runs. [quartiles] matches Python's
   [statistics.quantiles(xs, n=4)] (the "exclusive" method), so spreads
   computed here agree with ones computed from the printed results. *)

let sorted xs = List.sort Float.compare xs

let median xs =
  match sorted xs with
  | [] -> nan
  | s ->
    let a = Array.of_list s in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* First and third quartile; a single value is its own quartiles. *)
let quartiles xs =
  let a = Array.of_list (sorted xs) in
  let n = Array.length a in
  if n = 0 then (nan, nan)
  else if n = 1 then (a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 3)

let iqr xs =
  let q1, q3 = quartiles xs in
  q3 -. q1

(* Interquartile range as a share of the median. *)
let spread xs =
  let m = median xs in
  if m = 0.0 then 0.0 else iqr xs /. Float.abs m
