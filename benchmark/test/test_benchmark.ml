open Benchcore

let spec = lazy (Spec.load "../../BENCHMARK.json")

let valid_name s =
  String.length s >= 1
  && String.length s <= 64
  && (match s.[0] with 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' -> true | _ -> false)
  && String.for_all
       (function 'A' .. 'Z' | 'a' .. 'z' | '0' .. '9' | '_' | '.' | '-' -> true | _ -> false)
       s

let names_and_units metrics = List.map (fun (m : Spec.metric) -> (m.Spec.name, m.Spec.unit)) metrics

let test_declared_names () =
  let s = Lazy.force spec in
  Alcotest.(check (list (pair string string)))
    "workloads" (List.map (fun (w : Workload.t) -> (w.Workload.name, w.Workload.why)) Workload.all)
    s.Spec.workloads;
  Alcotest.(check (list (pair string string)))
    "end-to-end metrics" Catalog.end_to_end (names_and_units s.Spec.end_to_end);
  Alcotest.(check (list (pair string string)))
    "per-layer metrics" Catalog.per_layer (names_and_units s.Spec.per_layer);
  let names =
    List.map fst s.Spec.workloads
    @ List.map fst Catalog.end_to_end
    @ List.map fst Catalog.per_layer
  in
  List.iter (fun n -> Alcotest.(check bool) ("valid name " ^ n) true (valid_name n)) names;
  Alcotest.(check int)
    "names are unique" (List.length names)
    (List.length (List.sort_uniq compare names));
  let setup = List.find (fun (m : Spec.metric) -> m.Spec.name = "setup_s") s.Spec.end_to_end in
  Alcotest.(check bool) "setup_s is lower-is-better" true (setup.Spec.better = Spec.Lower);
  List.iter
    (fun (m : Spec.metric) ->
      Alcotest.(check bool)
        (m.Spec.name ^ " bound within (0, setup_s bound]")
        true
        (m.Spec.bound > 0.0 && m.Spec.bound <= setup.Spec.bound && m.Spec.bound <= 0.25))
    s.Spec.end_to_end

let verdict = Alcotest.testable (fun ppf v -> Format.pp_print_string ppf (Verdict.name v)) ( = )

let judge ~better ~bound parent change =
  (Verdict.judge ~better ~bound ~parent ~change).Verdict.verdict

let around base = List.init 10 (fun i -> base +. float_of_int (i mod 5))

let test_compare () =
  let higher = Spec.Higher and lower = Spec.Lower in
  Alcotest.check verdict "win: every pair better, gap beyond the parent IQR" Verdict.Gain
    (judge ~better:higher ~bound:0.05 (around 100.0) (around 110.0));
  Alcotest.check verdict "regression: median worse by more than the bound" Verdict.Worse
    (judge ~better:lower ~bound:0.05 (around 100.0) (around 110.0));
  Alcotest.check verdict "unresolved: spread wider than the bound" Verdict.Unresolved
    (judge ~better:lower ~bound:0.05
       [ 50.; 150.; 80.; 120.; 100.; 60.; 140.; 90.; 110.; 100. ]
       [ 60.; 140.; 90.; 130.; 105.; 70.; 150.; 95.; 115.; 100. ]);
  Alcotest.check verdict "same: identical runs" Verdict.Same
    (judge ~better:lower ~bound:0.05 (around 100.0) (around 100.0));
  Alcotest.check verdict "same: worse, but within the bound" Verdict.Same
    (judge ~better:higher ~bound:0.05 (around 100.0) (around 99.0))

let test_quartiles () =
  (* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
  let q1, q3 = Stats.quartiles (List.init 10 (fun i -> float_of_int (i + 1))) in
  Alcotest.(check (float 1e-12)) "q1" 2.75 q1;
  Alcotest.(check (float 1e-12)) "q3" 8.25 q3;
  Alcotest.(check (float 1e-12)) "median" 5.5 (Stats.median (List.init 10 (fun i -> float_of_int (i + 1))))

let test_latency_buckets () =
  let h = Bftmetrics.Hist.create () in
  List.iter (Bftmetrics.Hist.add h) [ 0.001; 0.0011; 0.002; 0.002; 0.5 ];
  let b = Latency.of_hist h in
  Alcotest.(check int) "every sample kept" 5 (Latency.count b);
  Alcotest.(check int) "merge adds" 10 (Latency.count (Latency.merge b b));
  Alcotest.(check int) "sub removes" 0 (Latency.count (Latency.sub b b));
  let p50 = Latency.percentile b 50.0 in
  Alcotest.(check bool) "p50 inside the 2 ms bucket" true
    (Float.abs (p50 -. Bftmetrics.Hist.percentile h 50.0) <= 0.05 *. p50)

(* A short copy of a workload: 0.2 s of load, measured after 50 ms. *)
let short name =
  match Workload.find name with
  | Some w -> { w with Workload.duration = Dessim.Time.ms 200; warmup = Dessim.Time.ms 50 }
  | None -> Alcotest.failf "no workload %s" name

let simulated (o : Measure.outcome) =
  Measure.to_json
    { o with Measure.values = List.filter (fun (k, _) -> not (List.mem k Catalog.host)) o.Measure.values }

let value (o : Measure.outcome) k =
  match List.assoc_opt k o.Measure.values with Some v -> v | None -> Alcotest.failf "no %s" k

let test_short_run name () =
  let w = short name in
  let a = Measure.run w ~seed:7L in
  let b = Measure.run w ~seed:7L in
  Alcotest.(check (list string)) "no failed checks" [] a.Measure.failures;
  Alcotest.(check bool) "requests completed" true (value a "client.completed" > 0.0);
  Alcotest.(check string) "same seed, byte-identical simulated metrics" (simulated a) (simulated b);
  let t = Measure.run w ~seed:7L ~trace:true in
  Alcotest.(check (list string)) "no failed checks when traced" [] t.Measure.failures;
  Alcotest.(check int) "traced run commits the same requests" a.Measure.committed t.Measure.committed;
  Alcotest.(check string) "traced run executes the same sequence" a.Measure.digest t.Measure.digest;
  Alcotest.(check (float 0.0)) "no audit violations" 0.0 (value t "audit.violations");
  let shares =
    List.fold_left
      (fun acc tag -> acc +. value t ("stage." ^ Bftspan.Tag.name tag ^ ".share"))
      0.0 Measure.stage_tags
  in
  Alcotest.(check (float 0.01)) "stage shares sum to 1" 1.0 shares

let () =
  Alcotest.run "benchmark"
    [
      ( "declaration",
        [ Alcotest.test_case "names match BENCHMARK.json" `Quick test_declared_names ] );
      ( "compare",
        [
          Alcotest.test_case "win, regression, unresolved, same" `Quick test_compare;
          Alcotest.test_case "quartiles match Python's" `Quick test_quartiles;
          Alcotest.test_case "latency buckets" `Quick test_latency_buckets;
        ] );
      ( "short runs",
        [
          Alcotest.test_case "steady-8B" `Quick (test_short_run "steady-8B");
          Alcotest.test_case "worst1-8B" `Quick (test_short_run "worst1-8B");
        ] );
    ]
