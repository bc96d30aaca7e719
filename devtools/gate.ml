(* The gate engine: one evaluator for every row of the gate table
   ({!Table.rows}).

   A row applies to the reports whose ["bench"] key equals its
   [bench]. Its [path] is a dotted leaf pattern walked over the parsed
   report. A segment is a key, an array index, [*] (every child) or
   [{a,b}] (each named child). A named child that is absent, or a [*]
   over an empty or scalar value, is a failure: a pattern both selects
   leaves and demands that they exist. Aggregates (sum, max, count) and
   sweeps range over the last [*] of the pattern, once per value of the
   segments before it. *)

module J = Bftmetrics.Jmini

type bound = Open of float | Closed of float

type agg = Each | Sum | Max | Count

type law =
  | Rising
  | Falling
  | Slope_max of { x : string; max : float }
      (** (y_last - y_first) / (x_last - x_first) <= max *)
  | Growth_below of { x : string; spread : float; ratio : float }
      (** Over first and last sightings with x_last >= spread * x_first:
          y_last / y_first < ratio * (x_last / x_first). *)

type rule =
  | Within of { tol : float; skip : string list }
      (** Every numeric leaf under the baseline's match, unless its path
          contains a skip substring, is in the fresh report and within
          ±tol of the baseline: a zero baseline demands an exact zero. *)
  | No_rise of float  (** fresh <= baseline * (1 + slack) *)
  | Band of { agg : agg; lo : bound; hi : bound }
  | Ratio of { den : string; lo : bound; hi : bound }
      (** Each match divided by the single leaf at [den]. *)
  | Sweep of { y : string; law : law }
      (** The pattern selects the sweep's points, in order; [y] (and a
          law's [x]) are patterns under each point. *)

type row = { bench : string; path : string; rule : rule; why : string }

type result = { checked : int; failures : string list }

let needs_baseline = function Within _ | No_rise _ -> true | _ -> false

let pp_bound ~lo = function
  | Open x | Closed x when Float.abs x = infinity -> if lo then "(-inf" else "inf)"
  | Open x -> if lo then Printf.sprintf "(%g" x else Printf.sprintf "%g)" x
  | Closed x -> if lo then Printf.sprintf "[%g" x else Printf.sprintf "%g]" x

let pp_band lo hi = pp_bound ~lo:true lo ^ ", " ^ pp_bound ~lo:false hi

let in_band v lo hi =
  (match lo with Open l -> v > l | Closed l -> v >= l)
  && match hi with Open h -> v < h | Closed h -> v <= h

let describe = function
  | Within { tol; _ } -> Printf.sprintf "= baseline ±%g%%" (100.0 *. tol)
  | No_rise slack -> Printf.sprintf "no rise (+%g%%)" (100.0 *. slack)
  | Band { agg; lo; hi } ->
    let agg = match agg with Each -> "each" | Sum -> "sum" | Max -> "max" | Count -> "count" in
    agg ^ " in " ^ pp_band lo hi
  | Ratio { den; lo; hi } -> Printf.sprintf "/ %s in %s" den (pp_band lo hi)
  | Sweep { y; law = Rising } -> y ^ " rising"
  | Sweep { y; law = Falling } -> y ^ " falling"
  | Sweep { y; law = Slope_max { x; max } } -> Printf.sprintf "%s per %s <= %g" y x max
  | Sweep { y; law = Growth_below { x; spread; ratio } } ->
    Printf.sprintf "%s grows < %gx as fast as %s over a >= %gx spread" y ratio x spread

type seg = Any | Keys of string list

let segs pattern =
  List.map
    (fun s ->
      let n = String.length s in
      if s = "*" then Any
      else if n >= 2 && s.[0] = '{' && s.[n - 1] = '}' then
        Keys (String.split_on_char ',' (String.sub s 1 (n - 2)))
      else Keys [ s ])
    (String.split_on_char '.' pattern)

let children = function
  | J.Obj kvs -> kvs
  | J.Arr vs -> List.mapi (fun i v -> (string_of_int i, v)) vs
  | _ -> []

let dotted = String.concat "."
let num = function J.Num n -> Some n | _ -> None
let find path v =
  List.fold_left (fun v k -> Option.bind v (fun v -> List.assoc_opt k (children v))) (Some v) path

(* Every match of [pattern] under [v] (which sits at [prefix]), in
   document order, as (full path, value); and the failures to match. *)
let matches ?(prefix = []) pattern v =
  let found = ref [] and errs = ref [] in
  let rec go path segs v =
    match segs with
    | [] -> found := (List.rev path, v) :: !found
    | Any :: rest -> (
      match children v with
      | [] -> errs := (dotted (List.rev path) ^ ".* matches nothing") :: !errs
      | kids -> List.iter (fun (k, c) -> go (k :: path) rest c) kids)
    | Keys ks :: rest ->
      List.iter
        (fun k ->
          match List.assoc_opt k (children v) with
          | Some c -> go (k :: path) rest c
          | None -> errs := (dotted (List.rev (k :: path)) ^ " missing") :: !errs)
        ks
  in
  go (List.rev prefix) (segs pattern) v;
  (List.rev !found, List.rev !errs)

(* Matches grouped by their path up to the pattern's last [*]. *)
let groups pattern ms =
  let depth = ref 0 in
  List.iteri (fun i s -> if s = Any then depth := i) (segs pattern);
  let key (p, _) = List.filteri (fun i _ -> i < !depth) p in
  let rec go = function
    | [] -> []
    | m :: _ as ms ->
      let same, rest = List.partition (fun m' -> key m' = key m) ms in
      (key m, same) :: go rest
  in
  go ms

let rec leaves path v =
  match v with
  | J.Num n -> [ (path, n) ]
  | _ -> List.concat_map (fun (k, c) -> leaves (path @ [ k ]) c) (children v)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let check ?baseline ?(on_compare = fun _ _ _ -> ()) row fresh =
  let checked = ref 0 and fails = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> fails := m :: !fails) fmt in
  let walk ?prefix pattern v =
    let ms, errs = matches ?prefix pattern v in
    List.iter (fail "%s") errs;
    ms
  in
  (* The numbers among [ms]; anything else is a failure. *)
  let numbers ms =
    List.filter_map
      (fun (p, v) ->
        if num v = None then fail "%s: not a number" (dotted p);
        Option.map (fun n -> (p, n)) (num v))
      ms
  in
  let test ok fmt =
    Printf.ksprintf (fun m -> incr checked; if not ok then fails := m :: !fails) fmt
  in
  (* Every baseline leaf [p] with value [b], against the fresh one. *)
  let versus base each =
    List.iter
      (fun (p, b) ->
        match Option.bind (find p fresh) num with
        | None -> fail "%s: missing in the fresh report" (dotted p)
        | Some f ->
          on_compare (dotted p) b f;
          test (each b f) "%s: baseline %.9g, fresh %.9g" (dotted p) b f)
      base
  in
  (match (row.rule, baseline) with
   | (Within _ | No_rise _), None -> invalid_arg "Gate.check: no baseline"
   | Within { tol; skip }, Some base ->
     walk row.path base
     |> List.concat_map (fun (p, v) -> leaves p v)
     |> List.filter (fun (p, _) -> not (List.exists (contains (dotted p)) skip))
     |> fun base -> versus base (fun b f -> Float.abs (f -. b) <= tol *. Float.abs b)
   | No_rise slack, Some base ->
     versus (numbers (walk row.path base)) (fun b f -> f <= b *. (1.0 +. slack))
   | Band { agg = Each; lo; hi }, _ ->
     List.iter
       (fun (p, n) -> test (in_band n lo hi) "%s = %.6g, want %s" (dotted p) n (pp_band lo hi))
       (numbers (walk row.path fresh))
   | Band { agg; lo; hi }, _ ->
     List.iter
       (fun (key, ms) ->
         let fold f z = List.fold_left f z (List.map snd (numbers ms)) in
         let v =
           match agg with
           | Sum -> fold ( +. ) 0.0
           | Max -> fold Float.max neg_infinity
           | Count | Each -> float_of_int (List.length ms)
         in
         test (in_band v lo hi) "%s.*: %s, got %.6g" (dotted key) (describe row.rule) v)
       (groups row.path (walk row.path fresh))
   | Ratio { den; lo; hi }, _ -> (
     match numbers (walk den fresh) with
     | [ (_, d) ] ->
       List.iter
         (fun (p, n) ->
           test (in_band (n /. d) lo hi) "%s / %s = %.4g, want %s" (dotted p) den (n /. d)
             (pp_band lo hi))
         (numbers (walk row.path fresh))
     | _ -> fail "%s: not a single number" den)
   | Sweep { y; law }, _ ->
     let x_of (p, pt, _) x =
       match numbers (walk ~prefix:p x pt) with [ (_, v) ] -> Some v | _ -> None
     in
     List.iter
       (fun (_, points) ->
         (* (y path under the point, (point path, point, y)), in order. *)
         let series =
           List.concat_map
             (fun (p, pt) ->
               List.map
                 (fun (q, n) -> (List.filteri (fun i _ -> i >= List.length p) q, (p, pt, n)))
                 (numbers (walk ~prefix:p y pt)))
             points
         in
         List.iter
           (fun sub ->
             let s = List.filter_map (fun (q, e) -> if q = sub then Some e else None) series in
             let name (p, _, _) = dotted (p @ sub) and y (_, _, n) = n in
             let first = List.hd s and last = List.nth s (List.length s - 1) in
             let rec pairs ok = function
               | a :: (b :: _ as rest) ->
                 test (ok (y a) (y b)) "%s = %.6g then %s = %.6g, want %s" (name a) (y a)
                   (name b) (y b) (describe row.rule);
                 pairs ok rest
               | _ -> ()
             in
             let ends x =
               match (x_of first x, x_of last x) with
               | Some x0, Some x1 -> Some (x0, x1)
               | _ -> fail "%s: no single %s" (name last) x; None
             in
             match law with
             | Rising -> pairs ( < ) s
             | Falling -> pairs ( > ) s
             | Slope_max { x; max } ->
               Option.iter
                 (fun (x0, x1) ->
                   let slope = (y last -. y first) /. (x1 -. x0) in
                   test ((not (x1 > x0)) || slope <= max)
                     "%s: %.1f per %s between %g and %g, want <= %g" (name last) slope x x0 x1 max)
                 (ends x)
             | Growth_below { x; spread; ratio } ->
               Option.iter
                 (fun (x0, x1) ->
                   let gy = y last /. y first and gx = x1 /. x0 in
                   test
                     ((not (x1 >= spread *. x0 && y first > 0.0)) || gy < ratio *. gx)
                     "%s grew %.0fx over a %.0fx spread of %s, want < %gx as fast" (name last) gy
                     gx x ratio)
                 (ends x))
           (List.sort_uniq compare (List.map fst series)))
       (groups row.path (walk row.path fresh)));
  { checked = !checked; failures = List.rev !fails }

(* Every row of [rows] for [fresh]'s bench kind; a row that needs a
   baseline is skipped ([None]) when none is given. *)
let run ?baseline ?on_compare rows fresh =
  let bench = Option.value ~default:"" (J.get_str "bench" fresh) in
  List.filter_map
    (fun row ->
      if row.bench <> bench then None
      else if needs_baseline row.rule && baseline = None then Some (row, None)
      else Some (row, Some (check ?baseline ?on_compare row fresh)))
    rows
