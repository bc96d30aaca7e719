(* Client latency distributions as sparse bucket counts.

   Clients record latency (seconds) in a {!Bftmetrics.Hist} with the
   default layout: bucket i holds values in [1 us * 1.05^i,
   1 us * 1.05^(i+1)). Reading the counts out lets a run keep only the
   requests completed after its warm-up (subtract a snapshot) and lets
   several runs pool their requests into one distribution. Percentiles
   interpolate linearly inside the bucket, so they move with the data
   instead of jumping between bucket midpoints. *)

type t = (int * int) list  (** (bucket, count), ascending, counts > 0 *)

let min_value = 1e-6
let gamma = 1.05

let lower_edge i = min_value *. (gamma ** float_of_int i)

(* [Hist.cumulative_le] counts whole buckets by their midpoint. *)
let of_hist h : t =
  let n = Bftmetrics.Hist.count h in
  if n = 0 then []
  else
    let top =
      int_of_float (log (Bftmetrics.Hist.max_observed h /. min_value) /. log gamma)
    in
    let rec go i below acc =
      if i > top || below >= n then List.rev acc
      else
        let upto =
          Bftmetrics.Hist.cumulative_le h (min_value *. exp (log gamma *. (float_of_int i +. 0.5)))
        in
        go (i + 1) upto (if upto > below then (i, upto - below) :: acc else acc)
    in
    go 0 0 []

let combine op (a : t) (b : t) : t =
  let tbl = Hashtbl.create 64 in
  List.iter (fun (i, c) -> Hashtbl.replace tbl i c) a;
  List.iter
    (fun (i, d) ->
      Hashtbl.replace tbl i (op (Option.value ~default:0 (Hashtbl.find_opt tbl i)) d))
    b;
  Hashtbl.fold (fun i c acc -> if c > 0 then (i, c) :: acc else acc) tbl []
  |> List.sort compare

let merge = combine ( + )
let sub = combine ( - )

let count (t : t) = List.fold_left (fun acc (_, c) -> acc + c) 0 t

(* [p] in [0, 100], in seconds; 0 for an empty distribution. *)
let percentile (t : t) p =
  let rank = p /. 100.0 *. float_of_int (count t) in
  let rec go below = function
    | [] -> 0.0
    | (i, c) :: rest ->
      let upto = below + c in
      if float_of_int upto >= rank then
        let frac = (rank -. float_of_int below) /. float_of_int c in
        lower_edge i +. (frac *. (lower_edge (i + 1) -. lower_edge i))
      else go upto rest
  in
  go 0 t
