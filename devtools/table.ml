(* The gate table: every check on a BENCH_*.json report, one row each.
   [bench_diff --gates FRESH [BASELINE]] runs the rows whose [bench]
   matches FRESH's ["bench"] key; see {!Gate} for the pattern language
   and the rules. A new claim on a report is a new row here. *)

open Gate

(* Wall-clock and sampled leaves, and the sections gated by rows of
   their own (shares, host costs): never part of the leaf diff. *)
let default_skips = [ "profile"; "seconds"; "share"; "sample"; "calls"; "host" ]

let headline = "{throughput_req_s,latency_p50_ms,latency_p99_ms,ordering_p50_ms,ordering_p99_ms}"
let band lo hi = Band { agg = Each; lo; hi }
let positive = band (Open 0.0) (Closed infinity)
let exactly x = band (Closed x) (Closed x)
let row bench path rule why = { bench; path; rule; why }

let diff bench skip =
  row bench "*" (Within { tol = 0.15; skip })
    "Simulated leaves are deterministic per seed, so they match the committed report (DESIGN §10)"

let rbft =
  let r = row "rbft" in
  [ diff "rbft" default_skips;
    r ("fault_free.{8B,4kB}." ^ headline) positive
      "The headline numbers the README quotes exist and are positive (DESIGN §10)";
    r "under_attack.{worst1,worst2}.{8B,4kB}.relative_throughput"
      (band (Open 0.0) (Closed 1.5))
      "Throughput under attack relative to fault-free is plausible (paper Figs 8-9)";
    r "profile.*" (Band { agg = Count; lo = Closed 1.0; hi = Closed infinity })
      "The wall-clock self-profile is not empty (DESIGN §10)";
    r "latency_breakdown.*.stages.*.share" (Band { agg = Sum; lo = Closed 0.99; hi = Closed 1.01 })
      "Stage shares telescope to the end-to-end latency (DESIGN §13)";
    r "latency_breakdown.8B.stages.queue-wait.share" (band (Closed neg_infinity) (Open 0.5))
      "Flow control keeps the 8 B queue-wait wall down; it was 0.94 before (DESIGN §17)";
    r "fault_free.8B.throughput_req_s" (band (Closed 33740.0) (Closed infinity))
      "Shedding cuts waiting, not capacity: the pre-flow-control peak (DESIGN §17)";
    r
      ("host.*.{events_per_req,msgs_per_req,sha256_blocks_per_req,queue_peak,tracked_peak,"
      ^ "known_peak,retained_words_per_req}")
      (No_rise 0.0)
      "Exact host counts and peaks may not rise (DESIGN §18, §19)";
    r "host.*.minor_words_per_req" (No_rise 0.05)
      "Minor words also depend on the compiler and runtime (DESIGN §19)";
    r "host.fault-free-8B.minor_words_per_req" (band (Closed neg_infinity) (Closed 3227.0))
      "Release build and one record per message: 0.85x of 3,796.5 words per request (DESIGN §19)" ]

let scale =
  let r = row "rbft-scale" in
  diff "rbft-scale" default_skips
  :: List.concat_map
       (fun f ->
         [ r (Printf.sprintf "sweep.f%d.n" f) (exactly (float_of_int ((3 * f) + 1)))
             "A cluster tolerating f faults has n = 3f + 1 nodes (DESIGN §1, §6)";
           r (Printf.sprintf "sweep.f%d.instances" f) (exactly (float_of_int (f + 1)))
             "RBFT runs f + 1 protocol instances (DESIGN §1, §6)" ])
       [ 1; 2; 3 ]
  @ [ r ("sweep.*." ^ headline) positive "Every sweep point reports its headline (EXPERIMENTS, scaling sweep)";
      r ("sweep.*.concurrent." ^ headline) positive
        "Every sweep point reports its concurrent column (DESIGN §16)";
      r "sweep.*" (Sweep { y = "throughput_req_s"; law = Falling })
        "Redundant instances are pure overhead: throughput falls with f (DESIGN §16)";
      r "sweep.*" (Sweep { y = "concurrent.throughput_req_s"; law = Rising })
        "Disjoint partitions turn instances into capacity (DESIGN §16)";
      r "sweep.f3.concurrent.throughput_req_s"
        (Ratio { den = "sweep.f1.concurrent.throughput_req_s"; lo = Closed 1.5; hi = Closed infinity })
        "Concurrent ordering's headline claim: f = 3 gives >= 1.5x f = 1 (DESIGN §16)" ]

let clients =
  let r = row "rbft-clients" in
  [ diff "rbft-clients" (default_skips @ [ "gc." ]);
    r "sweep.*.clients" (Band { agg = Count; lo = Closed 3.0; hi = Closed infinity })
      "At least three population points (DESIGN §18)";
    r "sweep.*" (Sweep { y = "clients"; law = Rising }) "Population sizes strictly increase (DESIGN §18)";
    r "sweep.*.clients" (Band { agg = Max; lo = Closed 1e4; hi = Closed infinity })
      "The sweep reaches 10^4 clients (DESIGN §18)";
    r "sweep.*.{clients,active,offered_req,throughput_req_s,latency_p50_ms,latency_p99_ms}" positive
      "Every point served its load (DESIGN §18)";
    r
      ("sweep.*.gc.{minor_collections,major_collections,minor_words,promoted_words,"
      ^ "setup_live_words,peak_heap_words}")
      (band (Closed 0.0) (Closed infinity))
      "Every GC series is present (DESIGN §18)";
    r "sweep.*.gc.peak_live_words" positive "Every point measured its peak live words (DESIGN §18)";
    r "sweep.*.footprint_peak.*" (band (Closed 0.0) (Closed infinity))
      "Every point has a footprint table (DESIGN §18)";
    r "sweep.*" (Sweep { y = "gc.peak_live_words"; law = Rising })
      "Clients cost memory: peak live words rise with the population (DESIGN §18)";
    r "sweep.*" (Sweep { y = "gc.setup_live_words"; law = Slope_max { x = "clients"; max = 45.0 } })
      "An idle registered client costs at most 45 set-up words (DESIGN §18)";
    r "sweep.*"
      (Sweep { y = "footprint_peak.*"; law = Growth_below { x = "clients"; spread = 10.0; ratio = 0.5 } })
      "No probed structure grows with the population: no unbounded per-client table (DESIGN §18)" ]

let rows = rbft @ scale @ clients
