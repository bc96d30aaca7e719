(* Tests for the capacity-observability layer ({!Bftcap}) and the
   structures it watches: footprint probe accuracy and nested
   accounting, GC-sampler growth analysis and culprit naming, the
   compact per-client reply cache, the client-population workload
   model, and the regression pinning bounded per-client tables under
   churn. *)

open Dessim
module Footprint = Bftcap.Footprint
module Gcstats = Bftcap.Gcstats

(* Every test runs on a probe of its own, footprint tracking on. *)
let with_probe f =
  let pr = Bftmetrics.Probe.create () in
  Bftmetrics.Probe.set_footprints pr true;
  f pr

(* ------------------------------------------------------------------ *)
(* Footprint probes                                                   *)
(* ------------------------------------------------------------------ *)

(* A hash table with n bindings must report exactly n entries, and a
   deep snapshot must charge it at least the words those bindings
   cost (conservatively 2 words per binding: the bucket cons cell
   alone is more). *)
let test_probe_accuracy =
  QCheck.Test.make ~count:30 ~name:"footprint probe accuracy"
    QCheck.(int_range 0 400)
    (fun n ->
      with_probe (fun pr ->
          Bftmetrics.Probe.set_deep pr true;
          let tbl = Hashtbl.create 16 in
          for i = 1 to n do
            Hashtbl.replace tbl i (string_of_int i)
          done;
          let _p =
            Bftmetrics.Probe.footprint pr ~name:"t.table" ~owner:"test"
              ~entries:(fun () -> Hashtbl.length tbl)
              ~root:(fun () -> Some (Obj.repr tbl))
              ()
          in
          match Footprint.snapshot ~deep:true pr with
          | [ row ] ->
            row.Footprint.r_entries = n
            && row.Footprint.r_bytes >= n * 2 * (Sys.word_size / 8)
            && (n = 0 || row.Footprint.r_bytes > 0)
          | rows ->
            QCheck.Test.fail_reportf "expected 1 row, got %d"
              (List.length rows)))

let test_nested_no_double_count () =
  with_probe (fun pr ->
      Bftmetrics.Probe.set_deep pr true;
      (* The child array dominates the parent's reachable words; after
         the exclusive-byte subtraction the parent must be charged
         only its own cells, far below the child. *)
      let child = Array.make 4096 0 in
      let parent = ref [ ("child", Obj.repr child); ("tag", Obj.repr "x") ] in
      ignore
        (Bftmetrics.Probe.footprint pr ~name:"t.parent" ~owner:"test"
           ~entries:(fun () -> List.length !parent)
           ~root:(fun () -> Some (Obj.repr !parent))
           ());
      ignore
        (Bftmetrics.Probe.footprint pr ~name:"t.child" ~owner:"test" ~parent:"t.parent"
           ~entries:(fun () -> Array.length child)
           ~root:(fun () -> Some (Obj.repr child))
           ());
      let rows = Footprint.snapshot ~deep:true pr in
      let find name =
        List.find (fun r -> r.Footprint.r_name = name) rows
      in
      let parent_row = find "t.parent" and child_row = find "t.child" in
      let child_min = 4096 * (Sys.word_size / 8) in
      Alcotest.(check bool) "child charged its array" true
        (child_row.Footprint.r_bytes >= child_min);
      Alcotest.(check bool) "parent bytes are exclusive" true
        (parent_row.Footprint.r_bytes < child_min);
      let total =
        List.fold_left (fun acc r -> acc + r.Footprint.r_bytes) 0 rows
      in
      (* Sum of exclusive bytes stays in the ballpark of the combined
         structure: no child counted twice. *)
      Alcotest.(check bool) "no double count in the sum" true
        (total < 2 * child_min))

let test_disabled_note_is_noop () =
  with_probe (fun pr ->
      Bftmetrics.Probe.set_footprints pr false;
      let count = ref 0 in
      let p =
        Bftmetrics.Probe.footprint pr ~name:"t.gated" ~owner:"test"
          ~entries:(fun () -> !count)
          ~root:(fun () -> None)
          ()
      in
      count := 500;
      for _ = 1 to 100 do
        Bftmetrics.Probe.note pr p
      done;
      Alcotest.(check int) "peak untouched while disabled" 0
        (Footprint.peak p);
      Bftmetrics.Probe.set_footprints pr true;
      Bftmetrics.Probe.note pr p;
      Alcotest.(check int) "peak tracks once enabled" 500 (Footprint.peak p))

let test_register_rebinds_and_resets_peak () =
  with_probe (fun pr ->
      let p1 =
        Bftmetrics.Probe.footprint pr ~name:"t.rebind" ~owner:"test"
          ~entries:(fun () -> 42)
          ~root:(fun () -> None)
          ()
      in
      Bftmetrics.Probe.note pr p1;
      Alcotest.(check int) "first binding peak" 42 (Footprint.peak p1);
      let p2 =
        Bftmetrics.Probe.footprint pr ~name:"t.rebind" ~owner:"test"
          ~entries:(fun () -> 7)
          ~root:(fun () -> None)
          ()
      in
      Alcotest.(check int) "rebind resets the peak" 0 (Footprint.peak p2);
      Alcotest.(check int) "one probe, not two" 1
        (List.length (Footprint.snapshot pr)))

(* ------------------------------------------------------------------ *)
(* GC sampler growth analysis                                         *)
(* ------------------------------------------------------------------ *)

(* Fabricated heap trajectory: live words climb 200k per sample at
   100 ms spacing = 2e6 words/s. The slope estimate and the culprit
   probe must both come out. *)
let test_gcstats_growth_and_culprit () =
  with_probe (fun pr ->
      let live = ref 1_000_000 in
      let read_stat () =
        { (Gc.quick_stat ()) with Gc.live_words = !live; heap_words = !live }
      in
      let leak = ref 0 in
      ignore
        (Bftmetrics.Probe.footprint pr ~name:"t.leak" ~owner:"test"
           ~entries:(fun () -> !leak)
           ~root:(fun () -> None)
           ());
      let g = Gcstats.create ~read_stat pr in
      for i = 1 to 8 do
        Gcstats.sample g ~now:(Time.ms (100 * i));
        live := !live + 200_000;
        leak := !leak + 1_000
      done;
      Alcotest.(check int) "peak live words" (1_000_000 + (7 * 200_000))
        (Gcstats.peak_live_words g);
      match Gcstats.growth g with
      | None -> Alcotest.fail "expected a growth estimate"
      | Some gr ->
        Alcotest.(check bool) "slope near 2e6 words/s" true
          (gr.Gcstats.g_live_slope > 1.5e6 && gr.Gcstats.g_live_slope < 2.5e6);
        (match gr.Gcstats.g_culprit with
         | Some (name, rate) ->
           Alcotest.(check string) "culprit names the leaking probe"
             "t.leak/test" name;
           Alcotest.(check bool) "culprit rate positive" true (rate > 0.0)
         | None -> Alcotest.fail "expected a culprit"))

(* ------------------------------------------------------------------ *)
(* Reply cache                                                        *)
(* ------------------------------------------------------------------ *)

module Replycache = Pbftcore.Replycache

let test_replycache_out_of_order_coalesces () =
  let c = Replycache.create ~window:4 () in
  (* The degraded-fallback/view-change shape: batches land in
     scrambled per-client order, yet must coalesce to one range. *)
  List.iter
    (fun rid -> Replycache.mark c ~client:3 ~rid ~result:(string_of_int rid))
    [ 5; 6; 1; 9; 10; 2; 7; 8; 3; 4 ];
  Alcotest.(check (list (pair int int))) "one merged range" [ (1, 10) ]
    (Replycache.ranges c ~client:3);
  for rid = 1 to 10 do
    Alcotest.(check bool) (Printf.sprintf "rid %d seen" rid) true
      (Replycache.seen c ~client:3 ~rid)
  done;
  Alcotest.(check bool) "rid 11 unseen" false
    (Replycache.seen c ~client:3 ~rid:11);
  Alcotest.(check bool) "other client unseen" false
    (Replycache.seen c ~client:4 ~rid:5)

let test_replycache_gap_ranges_then_merge () =
  let c = Replycache.create () in
  List.iter
    (fun rid -> Replycache.mark c ~client:0 ~rid ~result:"r")
    [ 1; 2; 3; 7; 8 ];
  Alcotest.(check (list (pair int int))) "two ranges across the gap"
    [ (1, 3); (7, 8) ]
    (Replycache.ranges c ~client:0);
  Replycache.mark c ~client:0 ~rid:5 ~result:"r";
  Alcotest.(check (list (pair int int))) "isolated rid opens a range"
    [ (1, 3); (5, 5); (7, 8) ]
    (Replycache.ranges c ~client:0);
  Replycache.mark c ~client:0 ~rid:4 ~result:"r";
  Replycache.mark c ~client:0 ~rid:6 ~result:"r";
  Alcotest.(check (list (pair int int))) "gap filled, all coalesced"
    [ (1, 8) ]
    (Replycache.ranges c ~client:0);
  (* Duplicate marks must not grow anything. *)
  Replycache.mark c ~client:0 ~rid:4 ~result:"r";
  Alcotest.(check (list (pair int int))) "duplicate mark is idempotent"
    [ (1, 8) ]
    (Replycache.ranges c ~client:0)

let test_replycache_window_eviction () =
  let c = Replycache.create ~window:2 () in
  for rid = 1 to 3 do
    Replycache.mark c ~client:1 ~rid ~result:(Printf.sprintf "r%d" rid)
  done;
  Alcotest.(check (option string)) "latest result cached" (Some "r3")
    (Replycache.find c ~client:1 ~rid:3);
  Alcotest.(check (option string)) "window holds the previous" (Some "r2")
    (Replycache.find c ~client:1 ~rid:2);
  Alcotest.(check (option string)) "evicted result gone" None
    (Replycache.find c ~client:1 ~rid:1);
  Alcotest.(check bool) "evicted rid still seen" true
    (Replycache.seen c ~client:1 ~rid:1)

let test_replycache_overflow_client_ids () =
  let c = Replycache.create ~window:2 () in
  (* Negative and far-out-of-range client ids must not allocate a
     dense slot array; they take the overflow path but behave the
     same. *)
  Replycache.mark c ~client:(-5) ~rid:1 ~result:"neg";
  Replycache.mark c ~client:50_000_000 ~rid:2 ~result:"big";
  Alcotest.(check bool) "negative id seen" true
    (Replycache.seen c ~client:(-5) ~rid:1);
  Alcotest.(check (option string)) "negative id result" (Some "neg")
    (Replycache.find c ~client:(-5) ~rid:1);
  Alcotest.(check (option string)) "huge id result" (Some "big")
    (Replycache.find c ~client:50_000_000 ~rid:2);
  Alcotest.(check int) "two clients tracked" 2 (Replycache.clients c);
  let ids =
    Replycache.fold_ids
      (fun ~client ~rid acc -> (client, rid) :: acc)
      c []
    |> List.sort compare
  in
  Alcotest.(check (list (pair int int))) "fold enumerates both"
    [ (-5, 1); (50_000_000, 2) ]
    ids

(* ------------------------------------------------------------------ *)
(* Population model                                                   *)
(* ------------------------------------------------------------------ *)

module Population = Bftworkload.Population

let test_population_rates_sum_to_aggregate () =
  let p =
    Population.create ~clients:1000 ~active:100 ~aggregate_rate:5000.0
      ~duration:(Time.sec 1) ()
  in
  let sum = Array.fold_left ( +. ) 0.0 (Population.rates p) in
  Alcotest.(check bool) "zipf rates sum to the aggregate" true
    (Float.abs (sum -. 5000.0) < 1e-6);
  let r = Population.rates p in
  Alcotest.(check bool) "heaviest slot first" true (r.(0) > r.(99));
  Alcotest.(check bool) "offered = rate x duration (steady)" true
    (Float.abs (Population.offered_total p -. 5000.0) < 1e-6)

let test_population_offered_by_profile () =
  let mk profile =
    Population.create ~profile ~clients:10 ~aggregate_rate:1000.0
      ~duration:(Time.sec 2) ()
  in
  Alcotest.(check bool) "flash offers 1.2x steady" true
    (Float.abs
       (Population.offered_total (mk Population.Flash) -. (1.2 *. 2000.0))
     < 1e-6);
  let diurnal = Population.offered_total (mk Population.Diurnal) in
  Alcotest.(check bool) "diurnal offers less than steady" true
    (diurnal < 2000.0 && diurnal > 0.3 *. 2000.0)

(* Same seed, same engine schedule -> the exact same sequence of
   set_rate calls, including churn rotations. *)
let test_population_apply_deterministic () =
  let record () =
    let engine = Engine.create () in
    let p =
      Population.create ~clients:60 ~active:12 ~churn_fraction:0.25
        ~aggregate_rate:600.0 ~duration:(Time.ms 800) ()
    in
    let calls = ref [] in
    Population.apply engine p ~set_rate:(fun c r ->
        calls := (Time.to_string (Engine.now engine), c, r) :: !calls);
    Engine.run ~until:(Time.sec 1) engine;
    List.rev !calls
  in
  let a = record () and b = record () in
  Alcotest.(check int) "same call count" (List.length a) (List.length b);
  Alcotest.(check bool) "identical schedules" true (a = b);
  (* Churn keeps introducing unseen population members. *)
  let distinct =
    List.sort_uniq compare (List.map (fun (_, c, _) -> c) a)
  in
  Alcotest.(check bool)
    (Printf.sprintf "churn rotated in fresh clients (%d distinct)"
       (List.length distinct))
    true
    (List.length distinct > 12);
  (* After the duration everyone is stopped. *)
  let final = Hashtbl.create 64 in
  List.iter (fun (_, c, r) -> Hashtbl.replace final c r) a;
  Hashtbl.iter
    (fun c r ->
      if r <> 0.0 then
        Alcotest.failf "client %d left running at %g req/s" c r)
    final

let test_population_flash_triples_midrun () =
  let engine = Engine.create () in
  let p =
    Population.create ~profile:Population.Flash ~clients:8
      ~churn_interval:Time.zero ~aggregate_rate:800.0
      ~duration:(Time.sec 1) ()
  in
  let peak = Array.make 8 0.0 in
  Population.apply engine p ~set_rate:(fun c r ->
      if r > peak.(c) then peak.(c) <- r);
  Engine.run ~until:(Time.sec 2) engine;
  let base = (Population.rates p).(0) in
  Alcotest.(check bool) "heaviest slot peaked at 3x its base rate" true
    (Float.abs (peak.(0) -. (3.0 *. base)) < 1e-6)

(* ------------------------------------------------------------------ *)
(* Bounded per-client tables under churn (regression)                 *)
(* ------------------------------------------------------------------ *)

(* Run a churning population against a cluster twice — once with the
   capacity knobs on, once off — and read the per-client tables
   through the footprint probes. The knobs must keep the request
   table and the monitoring latency table bounded near the live set
   while the unswept run grows with every client ever seen. *)
let churn_run ~params =
  with_probe (fun pr ->
      let duration = Time.ms 800 in
      let pop =
        Population.create ~clients:300 ~active:40 ~churn_fraction:0.25
          ~aggregate_rate:2000.0 ~duration ()
      in
      let cluster =
        Rbft.Cluster.create ~probe:pr ~clients:(Population.clients pop)
          ~payload_size:8 params
      in
      let engine = Rbft.Cluster.engine cluster in
      Population.apply engine pop ~set_rate:(fun c r ->
          Rbft.Client.set_rate (Rbft.Cluster.client cluster c) r);
      Rbft.Cluster.run_for cluster (Time.add duration (Time.ms 200));
      let entries name owner =
        match
          List.find_opt
            (fun r ->
              r.Footprint.r_name = name && r.Footprint.r_owner = owner)
            (Footprint.snapshot pr)
        with
        | Some r -> r.Footprint.r_entries
        | None -> Alcotest.failf "probe %s/%s not registered" name owner
      in
      let requests = entries "node.requests" "node-1" in
      let client_lat = entries "monitoring.client_lat" "node-1" in
      let monitoring_count =
        Rbft.Monitoring.client_count
          (Rbft.Node.monitoring (Rbft.Cluster.node cluster 1))
      in
      Alcotest.(check int) "probe and accessor agree" client_lat
        monitoring_count;
      (requests, client_lat))

let test_churn_bounded_with_knobs () =
  let base = Rbft.Params.default ~f:1 in
  let on =
    { base with
      Rbft.Params.request_gc_age = Time.ms 100;
      monitoring_idle_prune = Time.ms 200 }
  in
  let req_on, lat_on = churn_run ~params:on in
  let req_off, lat_off = churn_run ~params:base in
  (* ~200 distinct clients are seen over the run (40 live + 10 fresh
     per 50 ms churn); the pruned table must track the live set, the
     unpruned one the whole history. *)
  Alcotest.(check bool)
    (Printf.sprintf "unpruned latency table grows with history (%d)" lat_off)
    true (lat_off >= 120);
  Alcotest.(check bool)
    (Printf.sprintf "pruned latency table near the live set (%d)" lat_on)
    true
    (lat_on < 120 && lat_on * 2 < lat_off);
  Alcotest.(check bool)
    (Printf.sprintf "swept request table bounded (%d vs %d)" req_on req_off)
    true
    (req_on * 2 < req_off)

(* ------------------------------------------------------------------ *)
(* BENCH_clients.json structural determinism                          *)
(* ------------------------------------------------------------------ *)

(* Two same-seed sweeps must produce the same JSON skeleton and the
   same sim-deterministic series; only wall-runtime GC numbers may
   differ, so the shape comparison erases scalar values. *)
let rec shape (v : Bftdoctor.Jmini.v) =
  match v with
  | Bftdoctor.Jmini.Num _ -> "#"
  | Bftdoctor.Jmini.Str _ -> "$"
  | Bftdoctor.Jmini.Bool _ -> "?"
  | Bftdoctor.Jmini.Null -> "_"
  | Bftdoctor.Jmini.Arr vs ->
    "[" ^ String.concat "," (List.map shape vs) ^ "]"
  | Bftdoctor.Jmini.Obj kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> k ^ ":" ^ shape v) kvs)
    ^ "}"

let test_clients_report_structure_deterministic () =
  let parse s = Bftdoctor.Jmini.parse s in
  let a = parse (Bftharness.Perfreport.generate_clients ~quick:true) in
  let b = parse (Bftharness.Perfreport.generate_clients ~quick:true) in
  Alcotest.(check string) "identical JSON skeleton" (shape a) (shape b);
  (* The sim-deterministic leaves must agree exactly between runs. *)
  let sweep v =
    match v with
    | Bftdoctor.Jmini.Obj kvs -> (
      match List.assoc_opt "sweep" kvs with
      | Some (Bftdoctor.Jmini.Arr points) -> points
      | _ -> Alcotest.fail "no sweep array")
    | _ -> Alcotest.fail "not an object"
  in
  let deterministic_leaves points =
    List.concat_map
      (fun p ->
        match p with
        | Bftdoctor.Jmini.Obj kvs ->
          List.filter_map
            (fun (k, v) ->
              match (k, v) with
              | ("gc" | "footprint_peak"), _ -> None
              | k, Bftdoctor.Jmini.Num n -> Some (k, n)
              | _ -> None)
            kvs
        | _ -> [])
      points
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "sim-deterministic sweep values identical"
    (deterministic_leaves (sweep a))
    (deterministic_leaves (sweep b));
  (* And the footprint peak series is sim-deterministic too. *)
  let footprints points =
    List.concat_map
      (fun p ->
        match p with
        | Bftdoctor.Jmini.Obj kvs -> (
          match List.assoc_opt "footprint_peak" kvs with
          | Some (Bftdoctor.Jmini.Obj fps) ->
            List.filter_map
              (fun (k, v) ->
                match v with
                | Bftdoctor.Jmini.Num n -> Some (k, n)
                | _ -> None)
              fps
          | _ -> [])
        | _ -> [])
      points
  in
  Alcotest.(check (list (pair string (float 1e-9))))
    "footprint peaks identical" (footprints (sweep a))
    (footprints (sweep b))

(* ------------------------------------------------------------------ *)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "cap.footprint",
      qsuite [ test_probe_accuracy ]
      @ [
          Alcotest.test_case "nested probes do not double count" `Quick
            test_nested_no_double_count;
          Alcotest.test_case "disabled note is a no-op" `Quick
            test_disabled_note_is_noop;
          Alcotest.test_case "register rebinds and resets peak" `Quick
            test_register_rebinds_and_resets_peak;
        ] );
    ( "cap.gcstats",
      [
        Alcotest.test_case "growth slope and culprit" `Quick
          test_gcstats_growth_and_culprit;
      ] );
    ( "cap.replycache",
      [
        Alcotest.test_case "out-of-order marks coalesce" `Quick
          test_replycache_out_of_order_coalesces;
        Alcotest.test_case "gap ranges then merge" `Quick
          test_replycache_gap_ranges_then_merge;
        Alcotest.test_case "window eviction semantics" `Quick
          test_replycache_window_eviction;
        Alcotest.test_case "overflow client ids" `Quick
          test_replycache_overflow_client_ids;
      ] );
    ( "cap.population",
      [
        Alcotest.test_case "rates sum to aggregate" `Quick
          test_population_rates_sum_to_aggregate;
        Alcotest.test_case "offered totals by profile" `Quick
          test_population_offered_by_profile;
        Alcotest.test_case "apply is deterministic" `Quick
          test_population_apply_deterministic;
        Alcotest.test_case "flash triples the mid-run rate" `Quick
          test_population_flash_triples_midrun;
      ] );
    ( "cap.capacity",
      [
        Alcotest.test_case "churn-bounded tables with knobs on" `Slow
          test_churn_bounded_with_knobs;
        Alcotest.test_case "clients report structurally deterministic" `Slow
          test_clients_report_structure_deterministic;
      ] );
  ]
