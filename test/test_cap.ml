(* Tests for the capacity-observability layer ({!Bftcap}) and the
   structures it watches: footprint probe accuracy and nested
   accounting, GC-sampler growth analysis and culprit naming, the
   compact id set and the per-client reply cache built on it, the
   client-population workload model, the live words of an idle
   registered client, and the regressions pinning per-client and
   per-request tables to the live set rather than the run's history. *)

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

(* Minor words are exact between minor collections: 9,000 words
   allocated right after one read as at least that many, not as 0. *)
let test_gcstats_exact_minor_words () =
  with_probe (fun pr ->
      Gc.minor ();
      let g = Gcstats.create pr in
      let blocks = List.init 1000 (fun i -> Sys.opaque_identity [| i; i; i; i; i |]) in
      Gcstats.sample g ~now:(Time.ms 1);
      ignore (Sys.opaque_identity blocks);
      let words = List.assoc "minor_words" (Gcstats.deltas g) in
      Alcotest.(check bool) (Printf.sprintf "%.0f minor words" words) true
        (words >= 9000.0 && words < 12000.0))

(* The GC gauges are host-clock series: they go to the registry the
   caller names and never to the probe's, which the flight recorder
   snapshots into bundles. *)
let test_gcstats_gauges_stay_host () =
  with_probe (fun pr ->
      let host = Bftmetrics.Registry.create () in
      let g = Gcstats.create pr in
      Gcstats.register_gauges g host;
      let gc_families reg =
        List.length
          (List.filter
             (fun f ->
               String.starts_with ~prefix:"bft_gc_" (Bftmetrics.Registry.family_name f))
             (Bftmetrics.Registry.families reg))
      in
      Alcotest.(check int) "probe registry" 0
        (gc_families (Bftmetrics.Probe.registry pr));
      Alcotest.(check int) "host registry" 6 (gc_families host))

(* ------------------------------------------------------------------ *)
(* Id set                                                             *)
(* ------------------------------------------------------------------ *)

module Idset = Pbftcore.Idset

(* Clients from the dense range and from the overflow path (negative,
   past the dense limit, [max_int]); rids mostly from a small window,
   so inserts collide, leave gaps and fill them, plus the extremes
   that would overflow a careless [rid + 1]. *)
let gen_id =
  QCheck.Gen.(
    map2
      (fun client rid -> { Pbftcore.Types.client; rid })
      (frequency
         [ (6, int_range 0 5); (1, int_range (-3) (-1));
           (1, map (fun d -> (1 lsl 20) + d) (int_range 0 2));
           (1, return max_int) ])
      (frequency
         [ (8, int_range 0 40); (1, return max_int); (1, return min_int);
           (1, int_range (max_int - 2) max_int) ]))

let test_idset_matches_hashtbl =
  QCheck.Test.make ~count:300 ~name:"id set mem matches a hashtable"
    QCheck.(
      make
        ~print:(Print.list (fun (id : Pbftcore.Types.request_id) ->
             Printf.sprintf "%d/%d" id.client id.rid))
        Gen.(list_size (int_range 0 150) gen_id))
    (fun ids ->
      let set = Idset.create () and reference = Hashtbl.create 64 in
      let agree (id : Pbftcore.Types.request_id) =
        Idset.mem set id = Hashtbl.mem reference (id.client, id.rid)
      in
      (* Every inserted id and its rid neighbours, after every insert. *)
      let probes (id : Pbftcore.Types.request_id) =
        [ id; { id with rid = id.rid - 1 }; { id with rid = id.rid + 1 };
          { id with client = id.client + 1 } ]
      in
      List.for_all
        (fun (id : Pbftcore.Types.request_id) ->
          Idset.add set id;
          Hashtbl.replace reference (id.client, id.rid) ();
          List.for_all agree (probes id))
        ids
      && List.for_all (fun id -> List.for_all agree (probes id)) ids
      (* The ranges are sorted, disjoint and non-adjacent, and the
         running count is their number. *)
      &&
      let clients =
        List.sort_uniq compare
          (List.map (fun (id : Pbftcore.Types.request_id) -> id.client) ids)
      in
      let rec well_formed = function
        | (lo, hi) :: ((lo2, _) :: _ as rest) ->
          lo <= hi && hi < lo2 - 1 && well_formed rest
        | [ (lo, hi) ] -> lo <= hi
        | [] -> true
      in
      List.for_all (fun client -> well_formed (Idset.ranges set ~client)) clients
      && Idset.range_count set
         = List.fold_left
             (fun acc client -> acc + List.length (Idset.ranges set ~client))
             0 clients
      && Idset.fold (fun _ n -> n + 1) set 0 = Hashtbl.length reference)

(* The steady-state insert (the next rid of a client) is two field
   writes: after a client's first insert, in-order inserts allocate no
   minor-heap words, through the set and through its per-client ranges
   alike. *)
let test_idset_in_order_allocates_nothing () =
  let n = 10_000 in
  let ids = Array.init (n + 1) (fun rid -> { Pbftcore.Types.client = 7; rid }) in
  let set = Idset.create () in
  Idset.add set ids.(0);
  let ranges = Idset.Ranges.create () in
  ignore (Idset.Ranges.add ranges 0);
  (* The probe itself boxes a float: measure it empty first. *)
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for i = 1 to n do
    Idset.add set ids.(i);
    ignore (Idset.Ranges.add ranges i)
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 2 x 10,000 in-order inserts" 0.0
    (w2 -. w1 -. (w1 -. w0));
  Alcotest.(check (list (pair int int))) "one range" [ (0, n) ] (Idset.ranges set ~client:7);
  Alcotest.(check (list (pair int int))) "one range in Ranges" [ (0, n) ]
    (Idset.Ranges.to_list ranges)

(* Out-of-order inserts (view-change replay, requests an attack holds
   back) open, extend and merge lower ranges in place: once the range
   arrays have grown to the most lower ranges a client has held, they
   allocate nothing, through the set and through its per-client ranges
   alike, and neither do lookups below the highest range. *)
let test_idset_out_of_order_allocates_nothing () =
  let n = 1_000 in
  let ids = Array.init ((10 * n) + 1) (fun rid -> { Pbftcore.Types.client = 7; rid }) in
  let set = Idset.create () and ranges = Idset.Ranges.create () in
  let add rid =
    Idset.add set ids.(rid);
    ignore (Idset.Ranges.add ranges rid)
  in
  let found = ref 0 in
  let lookup rid =
    if Idset.mem set ids.(rid) then incr found;
    if Idset.Ranges.mem ranges rid then incr found
  in
  (* Grow: 2n lower ranges, then merged back into one. *)
  for i = 0 to 2 * n do
    add (2 * i)
  done;
  for i = 2 * n downto 1 do
    add ((2 * i) - 1)
  done;
  add (10 * n);
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  (* Open 2n - 1 ranges above [0, 4n], highest first, so each insert
     shifts the ones above it; look every rid up; fill the gaps in an
     interleaved order that extends ranges from below, from above and
     merges them. *)
  for i = (4 * n) - 1 downto (2 * n) + 1 do
    add (2 * i)
  done;
  for rid = 0 to 10 * n do
    lookup rid
  done;
  for i = (2 * n) + 1 to 4 * n do
    if i mod 2 = 0 then add ((2 * i) - 1)
  done;
  for i = 4 * n downto (2 * n) + 1 do
    if i mod 2 = 1 then add ((2 * i) - 1)
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over out-of-order inserts and lookups" 0.0
    (w2 -. w1 -. (w1 -. w0));
  Alcotest.(check int) "lookups" (2 * ((4 * n) + 1 + (2 * n) - 1 + 1)) !found;
  let expected = [ (0, (8 * n) - 1); (10 * n, 10 * n) ] in
  Alcotest.(check (list (pair int int))) "merged" expected (Idset.ranges set ~client:7);
  Alcotest.(check (list (pair int int))) "merged in Ranges" expected
    (Idset.Ranges.to_list ranges)

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

(* Footprint rows of a probe by (name, owner). *)
let footprint pr name owner =
  match
    List.find_opt
      (fun r -> r.Footprint.r_name = name && r.Footprint.r_owner = owner)
      (Footprint.snapshot pr)
  with
  | Some r -> r
  | None -> Alcotest.failf "probe %s/%s not registered" name owner

(* What one churn run left behind: node 1's request, Ω-latency and
   reply-cache tables, its executions, the engine's event count and
   each client's (completed, p50, p99). *)
type churn = {
  requests : Footprint.row;
  client_lat : int;
  reply_clients : int;
  executed : int;
  digest : string;
  events : int;
  latencies : (int * float * float) list;
}

(* Run a churning population against a seeded cluster, then let it
   drain for 200 ms, and read the tables through the footprint
   probes. *)
let churn_run ~params =
  with_probe (fun pr ->
      let duration = Time.ms 800 in
      let pop =
        Population.create ~clients:300 ~active:40 ~churn_fraction:0.25
          ~aggregate_rate:2000.0 ~duration ()
      in
      let cluster =
        Rbft.Cluster.create ~probe:pr ~seed:42L ~clients:(Population.clients pop)
          ~payload_size:8 params
      in
      let engine = Rbft.Cluster.engine cluster in
      Population.apply engine pop ~set_rate:(fun c r ->
          Rbft.Client.set_rate (Rbft.Cluster.client cluster c) r);
      Rbft.Cluster.run_for cluster (Time.add duration (Time.ms 200));
      let node = Rbft.Cluster.node cluster 1 in
      let client_lat = (footprint pr "monitoring.client_lat" "node-1").Footprint.r_entries in
      Alcotest.(check int) "probe and accessor agree" client_lat
        (Rbft.Monitoring.client_count (Rbft.Node.monitoring node));
      {
        requests = footprint pr "node.requests" "node-1";
        client_lat;
        reply_clients = (footprint pr "node.reply_cache" "node-1").Footprint.r_entries;
        executed = Rbft.Node.executed_count node;
        digest = Rbft.Node.execution_digest node;
        events = Engine.events_processed engine;
        latencies =
          Array.to_list
            (Array.map
               (fun c ->
                 let h = Rbft.Client.latencies c in
                 ( Rbft.Client.completed c,
                   Bftmetrics.Hist.percentile h 50.0,
                   Bftmetrics.Hist.percentile h 99.0 ))
               (Rbft.Cluster.clients cluster));
      })

(* With no parameter set, the per-request and per-client tables are
   bounded by structure alone. Finished requests are retired, so the
   request table holds the requests in flight, not the run's history.
   The monitoring's per-client latency table feeds only the Ω check:
   with Ω off it stays empty, and with Ω on it holds one row per
   client seen, no more than the reply cache's clients. *)
let test_churn_bounded_without_knobs () =
  let base = Rbft.Params.default ~f:1 in
  let off = churn_run ~params:base in
  let on = churn_run ~params:{ base with Rbft.Params.omega = Time.sec 1 } in
  Alcotest.(check int) "Ω off: no latency rows" 0 off.client_lat;
  (* 2,000 req/s at a few ms each is a few dozen requests in flight;
     the run executes ~1,600. *)
  Alcotest.(check bool)
    (Printf.sprintf "request table peak near the in-flight set (%d of %d executed)"
       off.requests.Footprint.r_peak off.executed)
    true
    (off.executed > 1000 && off.requests.Footprint.r_peak * 10 < off.executed);
  Alcotest.(check bool)
    (Printf.sprintf "request table drained after the run (%d)"
       off.requests.Footprint.r_entries)
    true
    (off.requests.Footprint.r_entries <= 10);
  (* Well over a hundred distinct clients are seen over the run (40
     live + 10 fresh per 50 ms churn; 147 reach an ordering). *)
  Alcotest.(check bool)
    (Printf.sprintf "Ω on: latency rows (%d) for the clients seen, at most the reply \
                     cache's (%d)"
       on.client_lat on.reply_clients)
    true
    (on.client_lat >= 120 && on.client_lat <= on.reply_clients)

(* [request_gc_age] and [monitoring_idle_prune] are inert: the values
   the benchmark's population workload sets change nothing a run
   produces. *)
let test_capacity_fields_inert () =
  let base = Rbft.Params.default ~f:1 in
  let set = churn_run
      ~params:
        { base with
          Rbft.Params.request_gc_age = Time.ms 300;
          monitoring_idle_prune = Time.ms 500 }
  in
  let unset = churn_run ~params:base in
  Alcotest.(check int) "executed at node 1" unset.executed set.executed;
  Alcotest.(check string) "execution digest" unset.digest set.digest;
  Alcotest.(check int) "events simulated" unset.events set.events;
  Alcotest.(check (list (triple int (float 0.0) (float 0.0))))
    "client (completed, p50, p99)" unset.latencies set.latencies

(* The flow-controlled configuration the benchmark measures (admission
   gate, adaptive batching, 8 B requests) at 20 kreq/s, about 0.7x its
   peak, run for 0.5 s and for 1 s: the peaks of the node request table,
   of the replicas' delivered sets and of every replica's pool of
   undelivered requests are set by what is in flight, so doubling the
   run must not grow them. Each grew linearly with the run while it
   kept every id ever seen. (Past the peak an open loop's
   client backlog itself grows with the run, and the rids it defers
   after BUSY replies open delivered-set gaps in step with it.) *)
let test_request_state_bounded_by_run_length () =
  let peaks seconds =
    with_probe (fun pr ->
        let cluster =
          Rbft.Cluster.create ~probe:pr ~seed:42L ~clients:20 ~payload_size:8
            { (Rbft.Params.default ~f:1) with
              Rbft.Params.admission_budget = 128;
              adaptive_batching = true }
        in
        Array.iter (fun c -> Rbft.Client.set_rate c 1000.0) (Rbft.Cluster.clients cluster);
        Rbft.Cluster.run_for cluster (Time.of_sec_f seconds);
        ( (footprint pr "node.requests" "node-1").Footprint.r_peak,
          (footprint pr "replica.delivered_ids" "node-1/i0").Footprint.r_peak,
          Rbft.Node.executed_count (Rbft.Cluster.node cluster 1),
          Array.to_list (Rbft.Cluster.nodes cluster)
          |> List.concat_map (fun n ->
                 List.map
                   (fun instance ->
                     Pbftcore.Replica.known_peak (Rbft.Node.replica n ~instance))
                   [ 0; 1 ]) ))
  in
  let req_short, del_short, exec_short, known_short = peaks 0.5 in
  let req_long, del_long, exec_long, known_long = peaks 1.0 in
  Alcotest.(check bool)
    (Printf.sprintf "the longer run executes more (%d vs %d)" exec_long exec_short)
    true
    (exec_long > exec_short + (exec_short / 2));
  Alcotest.(check bool)
    (Printf.sprintf "request table peak flat (%d at 0.5 s, %d at 1 s)" req_short req_long)
    true
    (req_long * 4 <= req_short * 5);
  Alcotest.(check bool)
    (Printf.sprintf "delivered set peak flat (%d at 0.5 s, %d at 1 s)" del_short del_long)
    true
    (del_long * 4 <= del_short * 5);
  List.iteri
    (fun i (short, long) ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d known pool peak flat (%d at 0.5 s, %d at 1 s)" i short
           long)
        true
        (long * 4 <= short * 5))
    (List.combine known_short known_long)

(* ------------------------------------------------------------------ *)
(* Cost of an idle registered client                                  *)
(* ------------------------------------------------------------------ *)

(* The live words [build n] adds, after full major collections on both
   sides (the way benchmark/measure.ml measures set-up). *)
let setup_live_words build n =
  let live () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let before = live () in
  let cluster = build n in
  let after = live () in
  ignore (Sys.opaque_identity cluster);
  after - before

(* A registered client that never sends holds its identity, counters
   and handler, and nothing sized for traffic: its throughput window,
   latency histogram and network port are built on first use. The
   marginal cost between 1,000 and 10,000 registered clients must stay
   under 100 live words per client. *)
let check_idle_client_cost name build =
  let small = 1_000 and large = 10_000 in
  let words =
    float_of_int (setup_live_words build large - setup_live_words build small)
    /. float_of_int (large - small)
  in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.1f live words per registered client <= 100" name words)
    true (words <= 100.0)

let test_idle_client_cost_rbft () =
  check_idle_client_cost "rbft" (fun clients ->
      Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients
        (Rbft.Params.default ~f:1))

let test_idle_client_cost_aardvark () =
  check_idle_client_cost "aardvark" (fun clients ->
      Aardvark.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients
        (Aardvark.Node.default_config ~f:1))

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
        Alcotest.test_case "gauges stay out of the probe registry" `Quick
          test_gcstats_gauges_stay_host;
        Alcotest.test_case "exact minor words" `Quick test_gcstats_exact_minor_words;
      ] );
    ( "cap.idset",
      qsuite [ test_idset_matches_hashtbl ]
      @ [
          Alcotest.test_case "in-order inserts allocate nothing" `Quick
            test_idset_in_order_allocates_nothing;
          Alcotest.test_case "out-of-order inserts allocate nothing" `Quick
            test_idset_out_of_order_allocates_nothing;
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
        Alcotest.test_case "idle rbft client costs <= 100 words" `Quick
          test_idle_client_cost_rbft;
        Alcotest.test_case "idle aardvark client costs <= 100 words" `Quick
          test_idle_client_cost_aardvark;
        Alcotest.test_case "churn-bounded tables with knobs unset" `Slow
          test_churn_bounded_without_knobs;
        Alcotest.test_case "capacity fields inert" `Slow test_capacity_fields_inert;
        Alcotest.test_case "clients report structurally deterministic" `Slow
          test_clients_report_structure_deterministic;
        Alcotest.test_case "request state bounded by run length" `Slow
          test_request_state_bounded_by_run_length;
      ] );
  ]
