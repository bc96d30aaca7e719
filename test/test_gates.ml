(* Tests for the BENCH gate table (devtools/gate.ml, devtools/table.ml):
   each rule kind on fabricated reports that pass and fail, then each
   check ported into the table against the defect it was written for,
   planted in the committed reports. *)

open Bftgates
module J = Bftmetrics.Jmini

let row path rule = { Gate.bench = "t"; path; rule; why = "" }

let failures ?base r fresh =
  (Gate.check ?baseline:(Option.map J.parse base) r (J.parse fresh)).Gate.failures

let passes ?base name r fresh = Alcotest.(check (list string)) name [] (failures ?base r fresh)

let fails ?base name r fresh =
  Alcotest.(check bool) name true (failures ?base r fresh <> [])

let each lo hi = Gate.Band { agg = Each; lo; hi }

let test_within () =
  let r = row "*" (Within { tol = 0.15; skip = [ "seconds" ] }) in
  let base = {|{"a":{"x":100,"z":0,"seconds":5},"l":[1,2]}|} in
  passes ~base "within ±15%, skipped leaf moved" r {|{"a":{"x":115,"z":0,"seconds":50},"l":[1,2]}|};
  fails ~base "beyond ±15%" r {|{"a":{"x":116,"z":0},"l":[1,2]}|};
  fails ~base "zero baseline moved" r {|{"a":{"x":100,"z":1e-9},"l":[1,2]}|};
  fails ~base "leaf missing" r {|{"a":{"x":100,"z":0},"l":[1]}|}

let test_no_rise () =
  let r = row "host.*.n" (No_rise 0.0) in
  let base = {|{"host":{"a":{"n":5},"b":{"n":7}}}|} in
  passes ~base "equal or falling" r {|{"host":{"a":{"n":5},"b":{"n":6}}}|};
  fails ~base "rise" r {|{"host":{"a":{"n":6},"b":{"n":7}}}|};
  fails ~base "leg missing" r {|{"host":{"a":{"n":5}}}|};
  let r = row "w" (No_rise 0.05) in
  passes ~base:{|{"w":100}|} "+5%" r {|{"w":105}|};
  fails ~base:{|{"w":100}|} "+6%" r {|{"w":106}|}

let test_band () =
  let r = row "s" (each (Closed neg_infinity) (Open 0.5)) in
  passes "below an open bound" r {|{"s":0.49}|};
  fails "at an open bound" r {|{"s":0.5}|};
  fails "missing" r {|{"t":0.1}|};
  fails "not a number" r {|{"s":"x"}|};
  let r = row "b.*.s.*" (Band { agg = Sum; lo = Closed 0.99; hi = Closed 1.01 }) in
  passes "sum per group" r {|{"b":{"8B":{"s":{"x":0.5,"y":0.5}},"4kB":{"s":{"x":0.6,"y":0.4}}}}|};
  fails "one group sums to 0.97" r {|{"b":{"8B":{"s":{"x":0.5,"y":0.5}},"4kB":{"s":{"x":0.6,"y":0.37}}}}|};
  fails "an empty group" r {|{"b":{"8B":{"s":{}}}}|};
  let r = row "p.*.c" (Band { agg = Max; lo = Closed 10.0; hi = Closed infinity }) in
  passes "max reaches" r {|{"p":[{"c":1},{"c":10}]}|};
  fails "max short" r {|{"p":[{"c":1},{"c":9}]}|};
  let r = row "p.*" (Band { agg = Count; lo = Closed 3.0; hi = Closed infinity }) in
  passes "three points" r {|{"p":[{},{},{}]}|};
  fails "two points" r {|{"p":[{},{}]}|};
  fails "no point" r {|{"p":[]}|};
  let r = row "{a,b}.x" (each (Open 0.0) (Closed infinity)) in
  passes "every named leaf" r {|{"a":{"x":1},"b":{"x":2}}|};
  fails "a named leaf missing" r {|{"a":{"x":1}}|}

let test_ratio () =
  let r = row "f3.t" (Ratio { den = "f1.t"; lo = Closed 1.5; hi = Closed infinity }) in
  passes "1.5x" r {|{"f1":{"t":100},"f3":{"t":150}}|};
  fails "1.49x" r {|{"f1":{"t":100},"f3":{"t":149}}|};
  fails "no denominator" r {|{"f3":{"t":150}}|}

let test_sweep () =
  let r = row "s.*" (Sweep { y = "c"; law = Rising }) in
  passes "rising array" r {|{"s":[{"c":1},{"c":2},{"c":3}]}|};
  fails "flat step" r {|{"s":[{"c":1},{"c":3},{"c":3}]}|};
  let r = row "s.*" (Sweep { y = "t"; law = Falling }) in
  passes "falling keyed series" r {|{"s":{"f1":{"t":3},"f2":{"t":2},"f3":{"t":1}}}|};
  fails "rising step" r {|{"s":{"f1":{"t":3},"f2":{"t":2},"f3":{"t":2.5}}}|};
  let r = row "s.*" (Sweep { y = "w"; law = Slope_max { x = "c"; max = 100.0 } }) in
  passes "100 per x" r {|{"s":[{"c":100,"w":1000},{"c":5000,"w":1},{"c":1100,"w":101000}]}|};
  fails "101 per x" r {|{"s":[{"c":100,"w":1000},{"c":1100,"w":102000}]}|};
  fails "no x" r {|{"s":[{"c":100,"w":1000},{"w":102000}]}|};
  let r =
    row "s.*" (Sweep { y = "fp.*"; law = Growth_below { x = "c"; spread = 10.0; ratio = 0.5 } })
  in
  passes "flat and slow tables" r
    {|{"s":[{"c":100,"fp":{"a":10,"b":10}},{"c":1000,"fp":{"a":10,"b":49}}]}|};
  passes "spread under 10x" r {|{"s":[{"c":100,"fp":{"a":10}},{"c":999,"fp":{"a":1000}}]}|};
  fails "one table grows half as fast" r
    {|{"s":[{"c":100,"fp":{"a":10,"b":10}},{"c":1000,"fp":{"a":10,"b":50}}]}|}

(* The committed reports, and the rows each fails after an edit. *)

let committed name = J.parse (In_channel.with_open_bin ("../" ^ name) In_channel.input_all)

(* [v] with the value at [path] mapped by [f], or removed where [f]
   gives [None]. *)
let rec edit path f (v : J.v) =
  let sub k c = if k = List.hd path then edit (List.tl path) f c else Some c in
  match (path, v) with
  | [], v -> f v
  | _, J.Obj kvs ->
    Some (J.Obj (List.filter_map (fun (k, c) -> Option.map (fun c -> (k, c)) (sub k c)) kvs))
  | _, J.Arr vs ->
    Some (J.Arr (List.filter_map Fun.id (List.mapi (fun i c -> sub (string_of_int i) c) vs)))
  | _ -> Some v

let set path g v = Option.get (edit path (function J.Num n -> Some (J.Num (g n)) | v -> Some v) v)
let remove path v = Option.get (edit path (fun _ -> None) v)
let get path v = match Gate.find path v with Some (J.Num n) -> n | _ -> Alcotest.fail "no leaf"

let failing_rows ?base fresh =
  List.filter_map
    (fun ((r : Gate.row), res) ->
      match res with
      | Some { Gate.failures = _ :: _; _ } -> Some (r.path ^ "  " ^ Gate.describe r.rule)
      | _ -> None)
    (Gate.run ?baseline:base Table.rows fresh)

let caught name ~report ~row fresh =
  let rows = failing_rows ~base:(committed report) fresh in
  if not (List.mem row rows) then
    Alcotest.failf "%s: row %S did not fail (failing: %s)" name row (String.concat "; " rows)

let test_committed_reports_pass () =
  List.iter
    (fun name ->
      let v = committed name in
      let results = Gate.run ~baseline:v Table.rows v in
      Alcotest.(check bool) (name ^ " has rows") true (results <> []);
      List.iter
        (fun ((r : Gate.row), res) ->
          match res with
          | Some res ->
            Alcotest.(check (list string)) (name ^ " " ^ r.path) [] res.Gate.failures;
            Alcotest.(check bool) (name ^ " " ^ r.path ^ " checks something") true (res.checked > 0)
          | None -> Alcotest.fail "skipped with a baseline")
        results;
      Alcotest.(check int) (name ^ " without a baseline") 0
        (List.length (failing_rows v)))
    [ "BENCH_rbft.json"; "BENCH_scale.json"; "BENCH_clients.json" ]

let test_zero_baseline_instance_changes () =
  let v = committed "BENCH_rbft.json" in
  Alcotest.(check (float 0.0)) "committed value" 0.0 (get [ "fault_free"; "8B"; "instance_changes" ] v);
  caught "fault-free 8 B instance change" ~report:"BENCH_rbft.json" ~row:"*  = baseline ±15%"
    (set [ "fault_free"; "8B"; "instance_changes" ] (fun _ -> 1.0) v)

let test_ported_rbft_checks () =
  let v = committed "BENCH_rbft.json" and report = "BENCH_rbft.json" in
  let host =
    "host.*.{events_per_req,msgs_per_req,sha256_blocks_per_req,queue_peak,tracked_peak,"
    ^ "known_peak,retained_words_per_req}  no rise (+0%)"
  in
  caught "known_peak +1" ~report ~row:host
    (set [ "host"; "fault-free-8B"; "known_peak" ] (( +. ) 1.0) v);
  caught "retained words +1" ~report ~row:host
    (set [ "host"; "worst1-4kB"; "retained_words_per_req" ] (( +. ) 1.0) v);
  caught "minor words +6%" ~report ~row:"host.*.minor_words_per_req  no rise (+5%)"
    (set [ "host"; "fault-free-8B"; "minor_words_per_req" ] (( *. ) 1.06) v);
  caught "8 B queue-wait share 0.5" ~report
    ~row:"latency_breakdown.8B.stages.queue-wait.share  each in (-inf, 0.5)"
    (set [ "latency_breakdown"; "8B"; "stages"; "queue-wait"; "share" ] (fun _ -> 0.5) v);
  let shares = [ "latency_breakdown"; "8B"; "stages" ] in
  let sum =
    List.fold_left (fun acc (_, s) -> acc +. Option.get (J.get_num "share" s)) 0.0
      (Gate.children (Option.get (Gate.find shares v)))
  in
  caught "stage shares sum to 0.97" ~report ~row:"latency_breakdown.*.stages.*.share  sum in [0.99, 1.01]"
    (set (shares @ [ "backoff"; "share" ]) (fun s -> s -. (sum -. 0.97)) v);
  caught "fault-free 8 B at 33,739 req/s" ~report ~row:"fault_free.8B.throughput_req_s  each in [33740, inf)"
    (set [ "fault_free"; "8B"; "throughput_req_s" ] (fun _ -> 33739.0) v);
  caught "relative throughput 1.6" ~report
    ~row:"under_attack.{worst1,worst2}.{8B,4kB}.relative_throughput  each in (0, 1.5]"
    (set [ "under_attack"; "worst2"; "4kB"; "relative_throughput" ] (fun _ -> 1.6) v)

let test_ported_scale_checks () =
  let v = committed "BENCH_scale.json" and report = "BENCH_scale.json" in
  caught "redundant throughput rising with f" ~report ~row:"sweep.*  throughput_req_s falling"
    (set [ "sweep"; "f3"; "throughput_req_s" ] (fun _ -> get [ "sweep"; "f2"; "throughput_req_s" ] v +. 1.0) v);
  caught "concurrent f3 at 1.4x f1" ~report
    ~row:"sweep.f3.concurrent.throughput_req_s  / sweep.f1.concurrent.throughput_req_s in [1.5, inf)"
    (set [ "sweep"; "f3"; "concurrent"; "throughput_req_s" ]
       (fun _ -> 1.4 *. get [ "sweep"; "f1"; "concurrent"; "throughput_req_s" ] v) v);
  caught "missing sweep.f2.concurrent" ~report
    ~row:("sweep.*.concurrent." ^ Table.headline ^ "  each in (0, inf)")
    (remove [ "sweep"; "f2"; "concurrent" ] v)

let test_ported_clients_checks () =
  let v = committed "BENCH_clients.json" and report = "BENCH_clients.json" in
  let c i = get [ "sweep"; i; "clients" ] v in
  let w0 = get [ "sweep"; "0"; "gc"; "setup_live_words" ] v in
  caught "46 set-up words per client" ~report ~row:"sweep.*  gc.setup_live_words per clients <= 45"
    (set [ "sweep"; "3"; "gc"; "setup_live_words" ] (fun _ -> w0 +. (46.0 *. (c "3" -. c "0"))) v);
  let fp = [ "footprint_peak"; "node.requests" ] in
  caught "a footprint peak growing with the population" ~report
    ~row:"sweep.*  footprint_peak.* grows < 0.5x as fast as clients over a >= 10x spread"
    (set ("sweep" :: "3" :: fp)
       (fun _ -> get ("sweep" :: "0" :: fp) v *. 0.5 *. (c "3" /. c "0")) v)

let suites =
  [ ( "gates.rules",
      [ Alcotest.test_case "within tolerance, zero baseline exact" `Quick test_within;
        Alcotest.test_case "no rise beyond a slack" `Quick test_no_rise;
        Alcotest.test_case "band on each, sum, max, count" `Quick test_band;
        Alcotest.test_case "ratio to another leaf" `Quick test_ratio;
        Alcotest.test_case "sweep laws" `Quick test_sweep ] );
    ( "gates.table",
      [ Alcotest.test_case "committed reports pass" `Quick test_committed_reports_pass;
        Alcotest.test_case "zero-baseline instance change fails" `Quick
          test_zero_baseline_instance_changes;
        Alcotest.test_case "rbft defects fail" `Quick test_ported_rbft_checks;
        Alcotest.test_case "scale defects fail" `Quick test_ported_scale_checks;
        Alcotest.test_case "clients defects fail" `Quick test_ported_clients_checks ] ) ]
