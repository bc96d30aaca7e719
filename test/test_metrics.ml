(* Tests for measurement utilities. *)

open Bftmetrics
open Dessim

let test_stats_basic () =
  let s = Stats.create () in
  List.iter (Stats.add s) [ 1.0; 2.0; 3.0; 4.0 ];
  Alcotest.(check int) "count" 4 (Stats.count s);
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean s);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.min s);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.max s);
  Alcotest.(check (float 1e-6)) "variance" (5.0 /. 3.0) (Stats.variance s);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Stats.sum s)

let test_stats_empty () =
  let s = Stats.create () in
  Alcotest.(check (float 0.0)) "mean" 0.0 (Stats.mean s);
  Alcotest.(check (float 0.0)) "variance" 0.0 (Stats.variance s)

let test_stats_merge () =
  let a = Stats.create () and b = Stats.create () and whole = Stats.create () in
  let xs = [ 1.0; 5.0; 2.5 ] and ys = [ 10.0; 0.5; 3.0; 7.0 ] in
  List.iter (Stats.add a) xs;
  List.iter (Stats.add b) ys;
  List.iter (Stats.add whole) (xs @ ys);
  let merged = Stats.merge a b in
  Alcotest.(check int) "count" (Stats.count whole) (Stats.count merged);
  Alcotest.(check (float 1e-9)) "mean" (Stats.mean whole) (Stats.mean merged);
  Alcotest.(check (float 1e-6)) "variance" (Stats.variance whole) (Stats.variance merged);
  Alcotest.(check (float 1e-9)) "min" (Stats.min whole) (Stats.min merged);
  Alcotest.(check (float 1e-9)) "max" (Stats.max whole) (Stats.max merged)

let test_hist_percentiles () =
  let h = Hist.create () in
  (* 1..1000 us as seconds. *)
  for i = 1 to 1000 do
    Hist.add h (float_of_int i *. 1e-6)
  done;
  Alcotest.(check int) "count" 1000 (Hist.count h);
  let p50 = Hist.percentile h 50.0 in
  Alcotest.(check bool) "p50 near 500us" true (p50 > 4.2e-4 && p50 < 5.8e-4);
  let p99 = Hist.percentile h 99.0 in
  Alcotest.(check bool) "p99 near 990us" true (p99 > 8.8e-4 && p99 < 1.12e-3);
  Alcotest.(check (float 1e-9)) "max observed" 1e-3 (Hist.max_observed h)

let test_hist_empty () =
  let h = Hist.create () in
  Alcotest.(check (float 0.0)) "p50 of empty" 0.0 (Hist.percentile h 50.0);
  Alcotest.(check (float 0.0)) "mean of empty" 0.0 (Hist.mean h)

let test_hist_mean () =
  let h = Hist.create () in
  List.iter (Hist.add h) [ 0.001; 0.003 ];
  Alcotest.(check (float 1e-9)) "mean" 0.002 (Hist.mean h)

let test_throughput_windows () =
  let t = Throughput.create () in
  (* 100 events in the first second, 50 in the second. *)
  for i = 0 to 99 do
    Throughput.record t ~now:(Time.ms (10 * i))
  done;
  for i = 0 to 49 do
    Throughput.record t ~now:(Time.add (Time.sec 1) (Time.ms (20 * i)))
  done;
  Alcotest.(check int) "total" 150 (Throughput.total t);
  Alcotest.(check int) "first window" 100 (Throughput.count_between t Time.zero (Time.sec 1));
  Alcotest.(check int) "second window" 50 (Throughput.count_between t (Time.sec 1) (Time.sec 2));
  Alcotest.(check (float 1e-6)) "rate" 100.0 (Throughput.rate_between t Time.zero (Time.sec 1))

let test_throughput_batch () =
  let t = Throughput.create () in
  Throughput.record_many t ~now:(Time.ms 5) 32;
  Throughput.record_many t ~now:(Time.ms 5) 32;
  Alcotest.(check int) "same-instant accumulate" 64
    (Throughput.count_between t Time.zero (Time.ms 10));
  Alcotest.(check int) "empty window" 0
    (Throughput.count_between t (Time.ms 10) (Time.ms 20))

let prop_throughput_counts =
  QCheck.Test.make ~name:"windowed counts partition the total"
    QCheck.(list_of_size Gen.(int_range 1 200) (int_range 0 10_000))
    (fun times ->
      let sorted = List.sort compare times in
      let t = Throughput.create () in
      List.iter (fun x -> Throughput.record t ~now:(Time.us x)) sorted;
      let mid = Time.us 5_000 in
      Throughput.count_between t Time.zero mid
      + Throughput.count_between t mid (Time.us 10_001)
      = List.length times)

let test_throughput_zero_and_reversed () =
  let t = Throughput.create () in
  Throughput.record_many t ~now:(Time.ms 5) 10;
  Alcotest.(check int) "zero-length count" 0
    (Throughput.count_between t (Time.ms 5) (Time.ms 5));
  Alcotest.(check (float 0.0)) "zero-length rate" 0.0
    (Throughput.rate_between t (Time.ms 5) (Time.ms 5));
  Alcotest.(check int) "reversed count" 0
    (Throughput.count_between t (Time.ms 9) (Time.ms 1));
  Alcotest.(check (float 0.0)) "reversed rate" 0.0
    (Throughput.rate_between t (Time.ms 9) (Time.ms 1));
  Alcotest.(check bool) "rate is finite" true
    (Float.is_finite (Throughput.rate_between t Time.zero Time.zero))

(* Windows are half-open [start, stop): any tiling of a range must see
   each event exactly once, wherever the cuts fall relative to event
   timestamps. *)
let prop_throughput_tiling =
  QCheck.Test.make ~name:"half-open windows tile exactly"
    QCheck.(
      pair
        (list_of_size Gen.(int_range 0 200) (int_range 0 10_000))
        (list_of_size Gen.(int_range 0 8) (int_range 0 10_000)))
    (fun (times, cuts) ->
      let t = Throughput.create () in
      List.iter (fun x -> Throughput.record t ~now:(Time.us x)) times;
      let bounds =
        List.sort_uniq compare ((0 :: cuts) @ [ 10_001 ])
      in
      let rec windows = function
        | a :: (b :: _ as rest) ->
          Throughput.count_between t (Time.us a) (Time.us b) + windows rest
        | _ -> 0
      in
      windows bounds = List.length times)

let prop_throughput_degenerate =
  QCheck.Test.make ~name:"degenerate windows are 0, never NaN"
    QCheck.(pair (list_of_size Gen.(int_range 0 50) (int_range 0 1000)) (int_range 0 1000))
    (fun (times, at) ->
      let t = Throughput.create () in
      List.iter (fun x -> Throughput.record t ~now:(Time.us x)) times;
      Throughput.count_between t (Time.us at) (Time.us at) = 0
      && Throughput.rate_between t (Time.us at) (Time.us at) = 0.0
      && Throughput.count_between t (Time.us (at + 1)) (Time.us at) = 0
      && Throughput.rate_between t (Time.us (at + 1)) (Time.us at) = 0.0)

let test_hist_single_sample () =
  let h = Hist.create () in
  Hist.add h 0.007;
  Alcotest.(check int) "count" 1 (Hist.count h);
  let within p =
    let v = Hist.percentile h p in
    v > 0.005 && v < 0.009
  in
  Alcotest.(check bool) "p1 ~ sample" true (within 1.0);
  Alcotest.(check bool) "p50 ~ sample" true (within 50.0);
  Alcotest.(check bool) "p99 ~ sample" true (within 99.0);
  Alcotest.(check (float 1e-9)) "max observed" 0.007 (Hist.max_observed h)

let test_hist_all_equal () =
  let h = Hist.create () in
  for _ = 1 to 100 do
    Hist.add h 2.5e-4
  done;
  let p50 = Hist.percentile h 50.0 and p99 = Hist.percentile h 99.0 in
  Alcotest.(check (float 1e-12)) "p50 = p99 when all equal" p50 p99;
  Alcotest.(check bool) "in bucket" true (p50 > 1.5e-4 && p50 < 3.5e-4)

let test_hist_beyond_top_bucket () =
  let h = Hist.create () in
  Hist.add h 1e9;
  (* way past the top bucket *)
  Hist.add h 1e-3;
  let p99 = Hist.percentile h 99.0 in
  Alcotest.(check bool) "p99 finite" true (Float.is_finite p99);
  Alcotest.(check bool) "p99 at top bucket or above observed floor" true
    (p99 >= 1e-3);
  Alcotest.(check (float 1e-3)) "max observed exact" 1e9 (Hist.max_observed h);
  Alcotest.(check int) "cumulative_le +inf sees all" 2
    (Hist.cumulative_le h Float.infinity)

let test_hist_reset_merge () =
  let a = Hist.create () and b = Hist.create () in
  List.iter (Hist.add a) [ 1e-3; 2e-3 ];
  List.iter (Hist.add b) [ 4e-3 ];
  let m = Hist.merge a b in
  Alcotest.(check int) "merged count" 3 (Hist.count m);
  Alcotest.(check (float 1e-9)) "merged sum" 7e-3 (Hist.sum m);
  Alcotest.(check (float 1e-9)) "merged max" 4e-3 (Hist.max_observed m);
  Hist.reset a;
  Alcotest.(check int) "reset count" 0 (Hist.count a);
  Alcotest.(check (float 0.0)) "reset p50" 0.0 (Hist.percentile a 50.0)

(* --- registry ----------------------------------------------------- *)

let test_registry_families () =
  let r = Registry.create () in
  let c1 = Registry.counter r "reqs_total" ~labels:[ ("node", "0") ] in
  let c2 = Registry.counter r "reqs_total" ~labels:[ ("node", "1") ] in
  let c1' = Registry.counter r "reqs_total" ~labels:[ ("node", "0") ] in
  Registry.Counter.inc c1;
  Registry.Counter.add c1' 2;
  Registry.Counter.inc c2;
  Alcotest.(check int) "re-registration returns the same child" 3
    (Registry.Counter.value c1);
  Alcotest.(check int) "one family" 1 (List.length (Registry.families r));
  Alcotest.(check int) "two children" 2
    (List.length (Registry.children_of (List.hd (Registry.families r))));
  Alcotest.check_raises "kind mismatch rejected"
    (Invalid_argument "Registry: reqs_total already registered as a counter")
    (fun () -> ignore (Registry.gauge r "reqs_total" ~labels:[ ("node", "9") ]))

let test_registry_reset_keeps_handles () =
  let r = Registry.create () in
  let c = Registry.counter r "c_total" ~labels:[] in
  let g = Registry.gauge r "g" ~labels:[] in
  let h = Registry.histogram r "h_seconds" ~labels:[] in
  Registry.Counter.add c 5;
  Registry.Gauge.set g 2.5;
  Hist.add h 1e-3;
  Registry.reset r;
  Alcotest.(check int) "counter zeroed" 0 (Registry.Counter.value c);
  Alcotest.(check (float 0.0)) "gauge zeroed" 0.0 (Registry.Gauge.value g);
  Alcotest.(check int) "hist zeroed" 0 (Hist.count h);
  (* The same handles keep working after reset. *)
  Registry.Counter.inc c;
  Alcotest.(check int) "handle live after reset" 1 (Registry.Counter.value c)

let test_registry_snapshot_gauge_fn () =
  let r = Registry.create () in
  let calls = ref 0 in
  Registry.gauge_fn r "cb" ~labels:[] (fun () ->
      incr calls;
      42.0);
  Alcotest.(check int) "callback not read eagerly" 0 !calls;
  let snap = Registry.snapshot r in
  Alcotest.(check int) "callback read once per snapshot" 1 !calls;
  (match snap with
   | [ { Registry.s_name = "cb"; s_value = Registry.Gauge_v v; _ } ] ->
     Alcotest.(check (float 0.0)) "value" 42.0 v
   | _ -> Alcotest.fail "unexpected snapshot shape");
  (* Re-registering replaces the callback. *)
  Registry.gauge_fn r "cb" ~labels:[] (fun () -> 7.0);
  match Registry.snapshot r with
  | [ { Registry.s_value = Registry.Gauge_v v; _ } ] ->
    Alcotest.(check (float 0.0)) "replaced" 7.0 v
  | _ -> Alcotest.fail "unexpected snapshot shape"

(* --- sampler ------------------------------------------------------ *)

let test_sampler_series () =
  let e = Engine.create () in
  let r = Registry.create () in
  let c = Registry.counter r "ticks_total" ~labels:[] in
  ignore (Engine.after e (Time.ms 25) (fun () -> Registry.Counter.add c 10));
  let s = Sampler.attach ~period:(Time.ms 10) e r in
  Engine.run ~until:(Time.ms 55) e;
  Sampler.detach s;
  let pts = Sampler.points s in
  Alcotest.(check bool) "collected several points" true (List.length pts >= 4);
  let times = List.map (fun p -> p.Sampler.p_time) pts in
  Alcotest.(check bool) "oldest first" true (List.sort compare times = times);
  let value_at p =
    match
      List.find_opt (fun s -> s.Registry.s_name = "ticks_total") p.Sampler.p_samples
    with
    | Some { Registry.s_value = Registry.Counter_v v; _ } -> v
    | _ -> -1
  in
  Alcotest.(check int) "first sample before the tick" 0 (value_at (List.hd pts));
  Alcotest.(check int) "last sample after the tick" 10
    (value_at (List.nth pts (List.length pts - 1)));
  (* Detached: running further adds no points. *)
  let n = Sampler.count s in
  ignore (Engine.after e (Time.ms 100) (fun () -> ()));
  Engine.run ~until:(Time.ms 200) e;
  Alcotest.(check int) "no points after detach" n (Sampler.count s)

(* Regression: the sampler is anchored to absolute engine sim-time
   ([epoch + k*period]), never to a per-node Clock, so a skewed clock
   driving the workload shifts the *values* but cannot drift the
   sample *timestamps*. Before the anchoring fix a tick rearmed
   relative to its own callback, and any scheduling perturbation
   accumulated into the series timeline. *)
let test_sampler_skew_anchoring () =
  let run factor =
    let e = Engine.create () in
    let r = Registry.create () in
    let c = Registry.counter r "work_total" ~labels:[] in
    let clock = Clock.create e in
    Clock.set_factor clock factor;
    (* periodic workload routed through the (possibly skewed) clock,
       the way protocol nodes drive their loops *)
    let rec work () =
      Registry.Counter.inc c;
      ignore (Clock.after clock (Time.ms 7) work)
    in
    ignore (Clock.after clock (Time.ms 7) work);
    let s = Sampler.attach ~period:(Time.ms 10) e r in
    Engine.run ~until:(Time.ms 95) e;
    Sampler.detach s;
    let value_at (p : Sampler.point) =
      match
        List.find_opt
          (fun smp -> smp.Registry.s_name = "work_total")
          p.Sampler.p_samples
      with
      | Some { Registry.s_value = Registry.Counter_v v; _ } -> v
      | _ -> -1
    in
    ( Sampler.epoch s,
      List.map (fun p -> p.Sampler.p_time) (Sampler.points s),
      List.map value_at (Sampler.points s) )
  in
  let epoch, times_plain, values_plain = run 1.0 in
  let _, times_skew, values_skew = run 1.7 in
  Alcotest.(check bool) "several samples" true (List.length times_plain >= 8);
  (* the skew really perturbed the workload... *)
  Alcotest.(check bool) "skew changes the sampled values" true
    (values_plain <> values_skew);
  (* ...but the sample instants are identical and sit exactly on the
     epoch + k*period grid *)
  Alcotest.(check bool) "timestamps immune to clock skew" true
    (times_plain = times_skew);
  List.iter
    (fun t ->
      Alcotest.(check int) "on the absolute period grid" 0
        ((Time.sub t epoch : Time.t) mod (Time.ms 10 : Time.t)))
    times_plain

(* --- exporters ---------------------------------------------------- *)

let starts_with s prefix =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_export_prometheus () =
  let r = Registry.create () in
  let c = Registry.counter r "req_total" ~help:"Requests" ~labels:[ ("node", "0") ] in
  Registry.Counter.add c 7;
  let g = Registry.gauge r "ratio" ~labels:[] in
  Registry.Gauge.set g Float.nan;
  let h = Registry.histogram r "lat_seconds" ~labels:[] in
  Hist.add h 1e-3;
  let text = Export.prometheus r in
  List.iter
    (fun needle ->
      Alcotest.(check bool) ("contains " ^ needle) true (contains text needle))
    [
      "# HELP req_total Requests";
      "# TYPE req_total counter";
      "req_total{node=\"0\"} 7";
      "# TYPE ratio gauge";
      "ratio NaN";
      "# TYPE lat_seconds histogram";
      "lat_seconds_bucket{le=\"+Inf\"} 1";
      "lat_seconds_count 1";
    ];
  let bucket_counts =
    String.split_on_char '\n' text
    |> List.filter_map (fun line ->
           if starts_with line "lat_seconds_bucket" then
             String.rindex_opt line ' '
             |> Option.map (fun i ->
                    int_of_string
                      (String.sub line (i + 1) (String.length line - i - 1)))
           else None)
  in
  Alcotest.(check bool) "has bucket lines" true (bucket_counts <> []);
  Alcotest.(check bool) "cumulative buckets monotone" true
    (List.sort compare bucket_counts = bucket_counts)

let test_export_csv_json () =
  let e = Engine.create () in
  let r = Registry.create () in
  let c = Registry.counter r "x_total" ~labels:[] in
  let s = Sampler.attach ~period:(Time.ms 10) e r in
  ignore (Engine.after e (Time.ms 5) (fun () -> Registry.Counter.inc c));
  Engine.run ~until:(Time.ms 30) e;
  Sampler.detach s;
  let csv = Export.csv_of_series s in
  (match String.split_on_char '\n' csv with
   | header :: _ ->
     Alcotest.(check string) "csv header" "time_s,metric,labels,field,value" header
   | [] -> Alcotest.fail "empty csv");
  let json = Export.json_of_snapshot r in
  Alcotest.(check bool) "json mentions metric" true (contains json "\"x_total\"");
  Alcotest.(check string) "json_float nan" "null" (Export.json_float Float.nan);
  Alcotest.(check string) "json escaping" {|"a\"b"|} ({|"|} ^ Export.json_escape {|a"b|} ^ {|"|})

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "metrics.stats",
      [
        Alcotest.test_case "basic moments" `Quick test_stats_basic;
        Alcotest.test_case "empty" `Quick test_stats_empty;
        Alcotest.test_case "merge" `Quick test_stats_merge;
      ] );
    ( "metrics.hist",
      [
        Alcotest.test_case "percentiles" `Quick test_hist_percentiles;
        Alcotest.test_case "empty" `Quick test_hist_empty;
        Alcotest.test_case "mean" `Quick test_hist_mean;
        Alcotest.test_case "single sample" `Quick test_hist_single_sample;
        Alcotest.test_case "all equal" `Quick test_hist_all_equal;
        Alcotest.test_case "beyond top bucket" `Quick test_hist_beyond_top_bucket;
        Alcotest.test_case "reset and merge" `Quick test_hist_reset_merge;
      ] );
    ( "metrics.throughput",
      [
        Alcotest.test_case "windows" `Quick test_throughput_windows;
        Alcotest.test_case "batched records" `Quick test_throughput_batch;
        Alcotest.test_case "zero-length and reversed" `Quick
          test_throughput_zero_and_reversed;
      ]
      @ qsuite
          [
            prop_throughput_counts;
            prop_throughput_tiling;
            prop_throughput_degenerate;
          ] );
    ( "metrics.registry",
      [
        Alcotest.test_case "families and children" `Quick test_registry_families;
        Alcotest.test_case "reset keeps handles" `Quick
          test_registry_reset_keeps_handles;
        Alcotest.test_case "snapshot and gauge_fn" `Quick
          test_registry_snapshot_gauge_fn;
      ] );
    ( "metrics.sampler",
      [
        Alcotest.test_case "time series" `Quick test_sampler_series;
        Alcotest.test_case "skewed-clock anchoring" `Quick
          test_sampler_skew_anchoring;
      ] );
    ( "metrics.export",
      [
        Alcotest.test_case "prometheus text" `Quick test_export_prometheus;
        Alcotest.test_case "csv and json" `Quick test_export_csv_json;
      ] );
  ]
