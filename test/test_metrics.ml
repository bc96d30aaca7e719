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

(* A histogram stores its buckets from the lowest one it has seen. Every
   query must read exactly as over a dense array from bucket 0, which is
   rebuilt here with the same bucket formula and the queries' old
   loops: a histogram of all samples, a merge of two halves and a copy
   give the same floats. *)
let prop_hist_offset_reads_dense =
  let min_value = 1e-6 and log_gamma = log 1.05 in
  let value_of i = min_value *. exp (log_gamma *. (float_of_int i +. 0.5)) in
  let dense samples =
    let counts = Array.make 2048 0 and underflow = ref 0 in
    List.iter
      (fun v ->
        if v < min_value then incr underflow
        else
          let i = int_of_float (log (v /. min_value) /. log_gamma) in
          counts.(i) <- counts.(i) + 1)
      samples;
    (counts, !underflow)
  in
  (* The old queries' loops over [samples]' dense buckets. *)
  let reference samples =
    let count = List.length samples and counts, underflow = dense samples in
    let max_observed = List.fold_left Float.max 0.0 samples in
    let percentile p =
      if count = 0 then 0.0
      else
        let rank = int_of_float (ceil (p /. 100.0 *. float_of_int count)) in
        let rank = max 1 (min count rank) in
        if rank <= underflow then min_value
        else begin
          let remaining = ref (rank - underflow) and result = ref None in
          Array.iteri
            (fun i n ->
              if n > 0 && !result = None then begin
                remaining := !remaining - n;
                if !remaining <= 0 then result := Some (value_of i)
              end)
            counts;
          Option.value !result ~default:max_observed
        end
    in
    let cumulative_le bound =
      if count = 0 || bound < min_value then 0
      else if bound >= max_observed then count
      else begin
        let acc = ref underflow in
        Array.iteri (fun i n -> if n > 0 && value_of i <= bound then acc := !acc + n) counts;
        min !acc count
      end
    in
    (percentile, cumulative_le)
  in
  let latency = QCheck.Gen.(map (fun e -> 10.0 ** e) (float_range (-7.0) 1.0)) in
  QCheck.Test.make ~count:200 ~name:"offset buckets read as dense ones"
    QCheck.(
      make
        ~print:Print.(pair (list float) (list float))
        Gen.(pair (list_size (int_range 0 40) latency) (list_size (int_range 0 40) latency)))
    (fun (xs, ys) ->
      let of_list l =
        let h = Hist.create () in
        List.iter (Hist.add h) l;
        h
      in
      let all = xs @ ys in
      let percentile, cumulative_le = reference all in
      let a = of_list xs and b = of_list ys in
      List.for_all
        (fun h ->
          Hist.count h = List.length all
          && List.for_all
               (fun p -> Hist.percentile h p = percentile p)
               [ 0.0; 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ]
          && List.for_all
               (fun bound -> Hist.cumulative_le h bound = cumulative_le bound)
               (1e-7 :: 1e-3 :: 20.0 :: all))
        [ of_list all; Hist.merge a b; Hist.merge b a; Hist.copy (Hist.merge a b) ])

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

(* --- empty-start structures ----------------------------------------

   A registered client that never completes a request must not pay for
   a throughput window or latency buckets: both start empty and
   allocate on their first sample. Each test checks the results and
   the words the structure holds. *)

let words x = Obj.reachable_words (Obj.repr x)

(* An unused histogram is its record and four boxed floats. *)
let idle_hist_words = 24

let test_throughput_unused () =
  let t = Throughput.create () in
  Alcotest.(check bool) (Printf.sprintf "unused window holds %d words" (words t)) true
    (words t <= 8);
  Alcotest.(check int) "total" 0 (Throughput.total t);
  Alcotest.(check int) "count" 0 (Throughput.count_between t Time.zero (Time.sec 10));
  Alcotest.(check int) "count from the past" 0
    (Throughput.count_between t (Time.sec 1) (Time.sec 2));
  Alcotest.(check (float 0.0)) "rate" 0.0
    (Throughput.rate_between t Time.zero (Time.sec 10))

(* 5,000 breakpoints fill about sixty 255-byte chunks (3-byte pairs at
   3 us spacing, 85 to a chunk after its first breakpoint, so the second
   chunk starts at the 88th record and the third at the 174th): the
   first record allocates nothing, the second instant the first chunk,
   and the chunk index doubles at 2, 4, ... 64 chunks.
   At each checkpoint every breakpoint must read back from the
   reference list, and the window may hold at most 64 words plus half a
   word per breakpoint; before the first record it holds no more than
   its record. Every third instant is recorded twice, which merges into
   one breakpoint. *)
let test_throughput_growth_keeps_breakpoints () =
  let t = Throughput.create () in
  let footprint_ok len = words t <= 64 + (len / 2) in
  Alcotest.(check bool) (Printf.sprintf "empty window holds %d words" (words t)) true
    (words t <= 8);
  let checkpoints =
    [ 1; 2; 3; 86; 87; 88; 89; 173; 174; 175; 1023; 1024; 1025; 2048; 2049; 4096; 4097;
      5000 ]
  in
  let reference = ref [] and total = ref 0 in
  for i = 1 to 5000 do
    let now = Time.us (3 * i) in
    let n = if i mod 3 = 0 then 2 else 1 in
    for _ = 1 to n do
      Throughput.record t ~now
    done;
    total := !total + n;
    reference := (now, !total) :: !reference;
    if List.mem i checkpoints then begin
      let before = ref 0 in
      List.iter
        (fun (at, cumulative) ->
          if Throughput.count_between t Time.zero (Time.add at (Time.ns 1)) <> cumulative
             || Throughput.count_between t Time.zero at <> !before
          then
            Alcotest.failf "breakpoint at %.0f us lost after %d records" (Time.to_us_f at) i;
          before := cumulative)
        (List.rev !reference);
      if not (footprint_ok i) then
        Alcotest.failf "%d breakpoints hold %d words" i (words t)
    end
  done;
  Alcotest.(check int) "total" !total (Throughput.total t)

(* The encoded stream's cost: 100,000 in-order records 28 us apart (a
   3-byte time delta and a 1-byte count delta each) hold at most 0.75
   words per breakpoint, chunk headers and index included. *)
let test_throughput_ceiling () =
  let t = Throughput.create () in
  let n = 100_000 in
  for i = 1 to n do
    Throughput.record t ~now:(Time.us (28 * i))
  done;
  let per = float_of_int (words t) /. float_of_int n in
  Alcotest.(check bool) (Printf.sprintf "%.3f words per breakpoint" per) true (per <= 0.75);
  Alcotest.(check int) "total" n (Throughput.total t);
  Alcotest.(check int) "first half" (n / 2)
    (Throughput.count_between t Time.zero (Time.add (Time.us (28 * (n / 2))) (Time.ns 1)));
  Alcotest.(check int) "one instant" 1
    (Throughput.count_between t (Time.us (28 * 777)) (Time.us ((28 * 777) + 1)))

(* One step of a recorded stream: the clock moves by [gap] ns (0 repeats
   the instant, a negative gap steps back and is clamped, a gap over
   2^35 ns needs a 6-byte varint), then [n] events are recorded (n = 0
   records nothing). *)
let gen_step =
  QCheck.Gen.(
    pair
      (frequency
         [ (4, int_range 1 100); (3, int_range 100 100_000); (2, return 0);
           (1, int_range (-50_000) (-1));
           (1, map (fun d -> (1 lsl 35) + d) (int_range 0 1_000_000)) ])
      (frequency
         [ (1, return 0); (6, return 1); (2, int_range 2 200); (1, int_range 200 100_000) ]))

(* Against a sorted reference of every event's clamped time: [total],
   the count before every breakpoint, one past it and one before it
   (every chunk starts at a breakpoint, so chunk boundaries are among
   them), the windows between consecutive bounds, and reversed
   windows. Streams of up to 3,000 steps span dozens of chunks. *)
let prop_throughput_matches_reference =
  QCheck.Test.make ~count:60 ~name:"counts match a sorted reference list"
    QCheck.(
      make
        ~print:(Print.list (fun (gap, n) -> Printf.sprintf "%+d:%d" gap n))
        Gen.(list_size (int_range 0 3000) gen_step))
    (fun steps ->
      let t = Throughput.create () in
      let clock = ref 0 and newest = ref None and events = ref [] in
      List.iter
        (fun (gap, n) ->
          clock := !clock + gap;
          Throughput.record_many t ~now:!clock n;
          if n > 0 then begin
            let at = match !newest with None -> !clock | Some l -> max l !clock in
            newest := Some at;
            events := (at, n) :: !events
          end)
        steps;
      let events = Array.of_list (List.rev !events) in
      (* [prefix.(i)]: events in the first [i] entries. *)
      let prefix = Array.make (Array.length events + 1) 0 in
      Array.iteri (fun i (_, n) -> prefix.(i + 1) <- prefix.(i) + n) events;
      let before bound =
        let lo = ref 0 and hi = ref (Array.length events) in
        while !lo < !hi do
          let mid = (!lo + !hi) / 2 in
          if fst events.(mid) < bound then lo := mid + 1 else hi := mid
        done;
        prefix.(!lo)
      in
      let total = prefix.(Array.length events) in
      let bounds =
        List.sort_uniq compare
          (min_int :: 0 :: max_int
           :: List.concat_map (fun (at, _) -> [ at - 1; at; at + 1 ]) (Array.to_list events))
      in
      let from_origin b = Throughput.count_between t min_int b = before b in
      let rec windows = function
        | a :: (b :: _ as rest) ->
          Throughput.count_between t a b = before b - before a
          && Throughput.count_between t b a = 0
          && windows rest
        | _ -> true
      in
      Throughput.total t = total && List.for_all from_origin bounds && windows bounds)

let test_hist_unused_is_neutral () =
  let unused = Hist.create () in
  let a = Hist.create () in
  List.iter (Hist.add a) [ 3e-7; 2e-4; 1e-3; 1e-3; 4.5e-3; 0.02 ];
  Alcotest.(check bool)
    (Printf.sprintf "unused histogram holds %d words" (words unused))
    true
    (words unused <= idle_hist_words);
  let bounds = [ 1e-7; 1e-6; 5e-4; 1e-3; 5e-3; 0.02; 1.0 ] in
  let same label h =
    List.iter
      (fun p ->
        Alcotest.(check (float 0.0))
          (Printf.sprintf "%s p%g" label p)
          (Hist.percentile a p) (Hist.percentile h p))
      [ 1.0; 25.0; 50.0; 90.0; 99.0; 100.0 ];
    List.iter
      (fun b ->
        Alcotest.(check int)
          (Printf.sprintf "%s cumulative_le %g" label b)
          (Hist.cumulative_le a b) (Hist.cumulative_le h b))
      bounds;
    Alcotest.(check int) (label ^ " count") (Hist.count a) (Hist.count h);
    Alcotest.(check (float 0.0)) (label ^ " sum") (Hist.sum a) (Hist.sum h)
  in
  same "merge a unused" (Hist.merge a unused);
  same "merge unused a" (Hist.merge unused a);
  same "copy a" (Hist.copy a);
  List.iter
    (fun (label, h) ->
      Alcotest.(check int) (label ^ " count") 0 (Hist.count h);
      Alcotest.(check (float 0.0)) (label ^ " p50") 0.0 (Hist.percentile h 50.0);
      Alcotest.(check int) (label ^ " cumulative_le") 0 (Hist.cumulative_le h 1.0);
      Alcotest.(check bool)
        (Printf.sprintf "%s holds %d words" label (words h))
        true
        (words h <= idle_hist_words))
    [ ("copy unused", Hist.copy unused); ("merge unused unused", Hist.merge unused unused) ];
  (* The first sample past an empty start lands where it always did. *)
  let late = Hist.create () in
  Hist.add late 1e-3;
  Alcotest.(check int) "first sample counted" 1 (Hist.cumulative_le late 1e-3)

(* The exposition of a histogram nobody observed: every fixed bucket at
   0, as before the bucket array started empty. *)
let test_export_unused_histogram () =
  let r = Registry.create () in
  let h =
    Registry.histogram r "idle_seconds" ~help:"Never observed" ~labels:[ ("node", "0") ]
  in
  Alcotest.(check bool)
    (Printf.sprintf "unused registry histogram holds %d words" (words h))
    true
    (words h <= idle_hist_words);
  let bucket le = Printf.sprintf {|idle_seconds_bucket{node="0",le="%s"} 0|} le in
  let expected =
    String.concat "\n"
      ([ "# HELP idle_seconds Never observed"; "# TYPE idle_seconds histogram" ]
      @ List.map bucket
          [ "1e-06"; "2.5e-06"; "5e-06"; "1e-05"; "2.5e-05"; "5e-05"; "0.0001";
            "0.00025"; "0.0005"; "0.001"; "0.0025"; "0.005"; "0.01"; "0.025";
            "0.05"; "0.1"; "0.25"; "0.5"; "1"; "2.5"; "5"; "10"; "+Inf" ]
      @ [ {|idle_seconds_sum{node="0"} 0|}; {|idle_seconds_count{node="0"} 0|}; "" ])
  in
  Alcotest.(check string) "prometheus text" expected (Export.prometheus r)

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
  let s = Sampler.attach ~period:(Time.ms 10) e [ r ] in
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
    let s = Sampler.attach ~period:(Time.ms 10) e [ r ] in
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
  let s = Sampler.attach ~period:(Time.ms 10) e [ r ] in
  ignore (Engine.after e (Time.ms 5) (fun () -> Registry.Counter.inc c));
  Engine.run ~until:(Time.ms 30) e;
  Sampler.detach s;
  let csv = Export.csv_of_series s in
  (match String.split_on_char '\n' csv with
   | header :: _ ->
     Alcotest.(check string) "csv header" "time_s,metric,labels,field,value" header
   | [] -> Alcotest.fail "empty csv");
  let json = Export.json_of_samples (Registry.snapshot r) in
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
        Alcotest.test_case "unused histogram is neutral" `Quick
          test_hist_unused_is_neutral;
      ]
      @ qsuite [ prop_hist_offset_reads_dense ] );
    ( "metrics.throughput",
      [
        Alcotest.test_case "windows" `Quick test_throughput_windows;
        Alcotest.test_case "batched records" `Quick test_throughput_batch;
        Alcotest.test_case "zero-length and reversed" `Quick
          test_throughput_zero_and_reversed;
        Alcotest.test_case "unused window" `Quick test_throughput_unused;
        Alcotest.test_case "growth keeps breakpoints" `Quick
          test_throughput_growth_keeps_breakpoints;
        Alcotest.test_case "words per breakpoint" `Quick test_throughput_ceiling;
      ]
      @ qsuite
          [
            prop_throughput_counts;
            prop_throughput_tiling;
            prop_throughput_degenerate;
            prop_throughput_matches_reference;
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
        Alcotest.test_case "unused histogram text" `Quick test_export_unused_histogram;
      ] );
  ]
