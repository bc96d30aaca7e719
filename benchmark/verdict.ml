(* Parent-versus-change judgement for one (metric, workload) row.

   [parent] and [change] hold one value per run, paired by position:
   run i of both sides used the same seed. The rules:
   - gain: the change wins at least 9 of every 10 pairs (ties count for
     neither side) and the medians differ by more than the parent's
     interquartile range;
   - unresolved: either side's spread (interquartile range over median)
     is wider than the bound, so a difference within the noise cannot
     be told from none, unless every change run beats every parent run;
   - worse: the change's median is worse than the parent's by more than
     the bound (a share of the parent's median);
   - same: otherwise. *)

type t = Gain | Same | Worse | Unresolved

let name = function
  | Gain -> "gain"
  | Same -> "same"
  | Worse -> "worse"
  | Unresolved -> "unresolved"

type row = {
  parent_median : float;
  change_median : float;
  wins : int;
  pairs : int;
  verdict : t;
}

let judge ~(better : Spec.better) ~bound ~parent ~change =
  (* [gain x y] > 0 when [y] reads better than [x]. *)
  let gain x y = match better with Spec.Higher -> y -. x | Spec.Lower -> x -. y in
  let rec zip a b =
    match (a, b) with x :: a, y :: b -> (x, y) :: zip a b | _ -> []
  in
  let pairs = zip parent change in
  let wins = List.length (List.filter (fun (p, c) -> gain p c > 0.0) pairs) in
  let pm = Stats.median parent and cm = Stats.median change in
  let all_better =
    parent <> [] && List.for_all (fun c -> List.for_all (fun p -> gain p c > 0.0) parent) change
  in
  let verdict =
    if pairs <> [] && 10 * wins >= 9 * List.length pairs && gain pm cm > Stats.iqr parent
    then Gain
    else if all_better then Same
    else if Float.max (Stats.spread parent) (Stats.spread change) > bound then Unresolved
    else if gain pm cm < -.bound *. Float.abs pm then Worse
    else Same
  in
  { parent_median = pm; change_median = cm; wins; pairs = List.length pairs; verdict }
