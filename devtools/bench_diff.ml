(* bench_diff: perf-regression gate over two BENCH_*.json reports.

   The benchmark numbers that matter (throughput, latency percentiles,
   relative throughput under attack) are derived from *virtual* time
   in a seeded deterministic simulation, so a fresh run on any machine
   reproduces the committed baseline exactly unless the code's
   behaviour changed. The wall-clock profile section is
   machine-dependent and skipped by default.

   Usage:
     bench_diff BASELINE.json FRESH.json [--tolerance 0.15]
                [--skip SUBSTR] [--list]
     bench_diff --scale-check BENCH_scale.json
     bench_diff --clients-check BENCH_clients.json
     bench_diff --host-check BASELINE.json FRESH.json

   Every numeric leaf present in the baseline must exist in the fresh
   report and agree within the relative tolerance; missing keys and
   out-of-tolerance deviations fail the gate (exit 1). Leaves whose
   path contains a skip substring, or whose baseline magnitude is
   below 1e-3 (noise-dominated shares), are ignored.

   [--scale-check] instead validates a single BENCH_scale.json
   structurally: cluster shapes, positive headline numbers, and the
   two scaling laws — redundant ordering loses throughput with every
   extra fault tolerated while concurrent (bftrcc) ordering gains it,
   with f = 3 concurrent at least 1.5x the f = 1 value.

   [--clients-check] validates a single BENCH_clients.json
   structurally: at least three sweep points with strictly increasing
   population sizes reaching 10^4 clients, each reporting positive
   throughput, GC statistics with a positive peak live-words figure,
   and a non-empty per-structure footprint-peak table — plus the
   capacity law the sweep exists to watch: peak live words must grow
   with the population (client endpoints cost memory), while no
   per-structure footprint peak may grow proportionally with it
   (that would be an unbounded per-client table). Each point's
   [gc.setup_live_words] (what the cluster's construction adds) must
   cost at most 100 words per registered client between the smallest
   and the largest point, so a per-client structure allocated up
   front fails even where no footprint probe covers it.

   [--breakdown-check] validates a single BENCH_rbft.json's latency
   attribution: per-stage shares must sum to ~1.0 for every request
   size (the tracer accounted for the whole end-to-end path), the 8 B
   queue-wait share must stay below --queue-wait-max (default 0.5 —
   the flow-control layer's reason to exist), and the fault-free 8 B
   throughput must not dip below --min-throughput (backpressure is
   only allowed to cut waiting, not capacity). Shares are in the
   default skip list of the two-file diff precisely because they are
   gated here structurally instead.

   [--host-check] gates the host cost of the simulator itself: the
   [host] section of two BENCH_rbft.json reports holds, per leg,
   engine events, delivered messages, minor-heap words and SHA-256
   blocks per completed request, the engine heap's high-water mark
   ([queue_peak], in entries) and the summed per-node peaks of the
   request-state tables ([tracked_peak], in entries). Events, messages,
   blocks and both peaks are exact counts of the simulation, so any
   rise fails; minor words depend on the compiler and runtime too, so
   they may rise by at most 5%. Falls always pass. The section is skipped by the two-file diff, whose symmetric
   tolerance would fail a large allocation cut. *)

let default_skips =
  [ "profile"; "seconds"; "share"; "sample"; "calls"; "host" ]

(* Flatten a Jmini tree to (dotted-path, number) leaves. *)
let rec flatten prefix (v : Bftmetrics.Jmini.v) acc =
  let join p k = if p = "" then k else p ^ "." ^ k in
  match v with
  | Bftmetrics.Jmini.Num n -> (prefix, n) :: acc
  | Bftmetrics.Jmini.Obj kvs ->
    List.fold_left (fun acc (k, v) -> flatten (join prefix k) v acc) acc kvs
  | Bftmetrics.Jmini.Arr vs ->
    List.fold_left
      (fun (i, acc) v -> (i + 1, flatten (join prefix (string_of_int i)) v acc))
      (0, acc) vs
    |> snd
  | Bftmetrics.Jmini.Null | Bftmetrics.Jmini.Bool _ | Bftmetrics.Jmini.Str _ ->
    acc

let read_json path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  try Bftmetrics.Jmini.parse s
  with Bftmetrics.Jmini.Parse_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

(* Accessors over a parsed report, shared by the gates below. *)
let obj = function Bftmetrics.Jmini.Obj kvs -> Some kvs | _ -> None
let field kvs k = List.assoc_opt k kvs

let num kvs k =
  match field kvs k with Some (Bftmetrics.Jmini.Num n) -> Some n | _ -> None

(* Structural gate over the scaling sweep: replaces the shell-side
   monotonicity check that used to live in CI. Exit 1 with every
   complaint listed, so a broken report shows all its problems at
   once. *)
let scale_check path =
  let v = read_json path in
  let problems = ref [] in
  let complain fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  let headline =
    [ "throughput_req_s"; "latency_p50_ms"; "latency_p99_ms";
      "ordering_p50_ms"; "ordering_p99_ms" ]
  in
  let check_block label kvs =
    List.iter
      (fun k ->
        match num kvs k with
        | Some n when n > 0.0 -> ()
        | Some n -> complain "%s.%s non-positive: %g" label k n
        | None -> complain "%s.%s missing" label k)
      headline
  in
  let sweep =
    match obj v with
    | Some kvs -> field kvs "sweep" |> Option.map obj |> Option.join
    | None -> None
  in
  (match sweep with
   | None -> complain "no sweep section"
   | Some sweep ->
     let redundant = Array.make 3 0.0 and concurrent = Array.make 3 0.0 in
     for f = 1 to 3 do
       let fkey = Printf.sprintf "f%d" f in
       match field sweep fkey |> Option.map obj |> Option.join with
       | None -> complain "sweep.%s missing" fkey
       | Some row ->
         if num row "n" <> Some (float_of_int ((3 * f) + 1)) then
           complain "sweep.%s.n should be %d" fkey ((3 * f) + 1);
         if num row "instances" <> Some (float_of_int (f + 1)) then
           complain "sweep.%s.instances should be %d" fkey (f + 1);
         check_block ("sweep." ^ fkey) row;
         (match num row "throughput_req_s" with
          | Some n -> redundant.(f - 1) <- n
          | None -> ());
         (match field row "concurrent" |> Option.map obj |> Option.join with
          | None -> complain "sweep.%s.concurrent missing" fkey
          | Some c ->
            check_block ("sweep." ^ fkey ^ ".concurrent") c;
            (match num c "throughput_req_s" with
             | Some n -> concurrent.(f - 1) <- n
             | None -> ()))
     done;
     (* Redundant ordering: added instances are pure overhead, so
        throughput must fall with every extra fault tolerated. *)
     if not (redundant.(0) > redundant.(1) && redundant.(1) > redundant.(2))
     then
       complain "redundant throughput should decrease with f, got %g > %g > %g"
         redundant.(0) redundant.(1) redundant.(2);
     (* Concurrent ordering: disjoint partitions turn the same
        instances into capacity, so throughput must rise instead —
        and by at least 1.5x from f = 1 to f = 3 (the headline claim
        of the bftrcc subsystem). *)
     if not (concurrent.(0) < concurrent.(1) && concurrent.(1) < concurrent.(2))
     then
       complain "concurrent throughput should increase with f, got %g < %g < %g"
         concurrent.(0) concurrent.(1) concurrent.(2);
     if concurrent.(0) > 0.0 && concurrent.(2) < 1.5 *. concurrent.(0) then
       complain "concurrent f3 is %.2fx f1, need >= 1.5x"
         (concurrent.(2) /. concurrent.(0));
     if !problems = [] then
       Printf.printf
         "scale-check ok: redundant %.0f > %.0f > %.0f req/s, concurrent %.0f \
          < %.0f < %.0f req/s (f3 = %.2fx f1)\n"
         redundant.(0) redundant.(1) redundant.(2) concurrent.(0)
         concurrent.(1) concurrent.(2)
         (concurrent.(2) /. concurrent.(0)));
  match List.rev !problems with
  | [] -> ()
  | ps ->
    Printf.eprintf "scale-check: %d problem(s) in %s:\n" (List.length ps) path;
    List.iter (fun p -> Printf.eprintf "  %s\n" p) ps;
    exit 1

(* Live words an idle registered client may add to set-up. *)
let max_words_per_client = 100.0

(* Structural gate over the client-population capacity sweep. Numbers
   are virtual-time deterministic, so the structural laws hold exactly
   on every machine; the absolute values are gated by the committed
   baseline through the ordinary two-file diff. *)
let clients_check path =
  let v = read_json path in
  let problems = ref [] in
  let complain fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  let sweep =
    match obj v with
    | Some kvs ->
      (match field kvs "sweep" with
       | Some (Bftmetrics.Jmini.Arr points) -> Some points
       | _ -> None)
    | None -> None
  in
  (match sweep with
   | None -> complain "no sweep array"
   | Some points ->
     if List.length points < 3 then
       complain "sweep has %d point(s), need >= 3" (List.length points);
     let prev_clients = ref 0.0 in
     let max_clients = ref 0.0 in
     let first_live = ref None and last_live = ref None in
     (* (clients, setup live words) of the first and last points. *)
     let first_setup = ref None and last_setup = ref None in
     (* name -> (clients, peak) of first and last sightings, for the
        proportional-growth check. *)
     let fp_first = Hashtbl.create 16 and fp_last = Hashtbl.create 16 in
     List.iteri
       (fun i point ->
         let label = Printf.sprintf "sweep.%d" i in
         match obj point with
         | None -> complain "%s is not an object" label
         | Some row ->
           let clients = Option.value ~default:0.0 (num row "clients") in
           if clients <= !prev_clients then
             complain "%s.clients %g not increasing (prev %g)" label clients
               !prev_clients;
           prev_clients := clients;
           if clients > !max_clients then max_clients := clients;
           List.iter
             (fun k ->
               match num row k with
               | Some n when n > 0.0 -> ()
               | Some n -> complain "%s.%s non-positive: %g" label k n
               | None -> complain "%s.%s missing" label k)
             [ "active"; "offered_req"; "throughput_req_s";
               "latency_p50_ms"; "latency_p99_ms" ];
           (match field row "gc" |> Option.map obj |> Option.join with
            | None -> complain "%s.gc missing" label
            | Some gc ->
              (match num gc "peak_live_words" with
               | Some n when n > 0.0 ->
                 if !first_live = None then first_live := Some n;
                 last_live := Some n
               | Some n -> complain "%s.gc.peak_live_words non-positive: %g" label n
               | None -> complain "%s.gc.peak_live_words missing" label);
              (match num gc "setup_live_words" with
               | Some w ->
                 if !first_setup = None then first_setup := Some (clients, w);
                 last_setup := Some (clients, w)
               | None -> complain "%s.gc.setup_live_words missing" label);
              List.iter
                (fun k ->
                  if num gc k = None then complain "%s.gc.%s missing" label k)
                [ "minor_collections"; "major_collections"; "minor_words";
                  "promoted_words"; "peak_heap_words" ]);
           (match field row "footprint_peak" |> Option.map obj |> Option.join
            with
            | None -> complain "%s.footprint_peak missing" label
            | Some fps ->
              if fps = [] then complain "%s.footprint_peak is empty" label;
              List.iter
                (fun (name, v) ->
                  match v with
                  | Bftmetrics.Jmini.Num peak ->
                    if not (Hashtbl.mem fp_first name) then
                      Hashtbl.replace fp_first name (clients, peak);
                    Hashtbl.replace fp_last name (clients, peak)
                  | _ -> complain "%s.footprint_peak.%s not a number" label name)
                fps))
       points;
     if !max_clients < 10_000.0 then
       complain "largest sweep point is %g clients, need >= 10000" !max_clients;
     (* Capacity law 1: memory grows with the population. *)
     (match (!first_live, !last_live) with
      | Some a, Some b when b <= a ->
        complain
          "peak live words %g at the largest population <= %g at the \
           smallest — population size should cost memory"
          b a
      | _ -> ());
     (* Capacity law 1b: an idle registered client is cheap. *)
     (match (!first_setup, !last_setup) with
      | Some (c0, w0), Some (c1, w1) when c1 > c0 ->
        let per_client = (w1 -. w0) /. (c1 -. c0) in
        if per_client > max_words_per_client then
          complain
            "set-up costs %.1f live words per registered client between %g \
             and %g clients (> %g)"
            per_client c0 c1 max_words_per_client
      | _ -> ());
     (* Capacity law 2: no per-structure peak may scale with the
        population — growing half as fast as clients (or worse) over
        a >= 10x population spread means an unbounded per-client
        table slipped back in. *)
     Hashtbl.iter
       (fun name (c1, p1) ->
         let c0, p0 = Hashtbl.find fp_first name in
         if c1 >= 10.0 *. c0 && p0 > 0.0 && p1 /. p0 >= 0.5 *. (c1 /. c0)
         then
           complain
             "footprint %s peak grew %.0fx over a %.0fx population spread — \
              unbounded per-client structure?"
             name (p1 /. p0) (c1 /. c0))
       fp_last);
  match List.rev !problems with
  | [] ->
    Printf.printf
      "clients-check ok: >= 3 increasing population points reaching >= 10^4 \
       clients, GC and footprint series present, <= 100 set-up words per \
       registered client, no structure scaling with the population\n"
  | ps ->
    Printf.eprintf "clients-check: %d problem(s) in %s:\n" (List.length ps)
      path;
    List.iter (fun p -> Printf.eprintf "  %s\n" p) ps;
    exit 1

(* Structural gate over the latency attribution of one BENCH_rbft.json:
   the breakdown must cover the whole path (shares sum to ~1) and the
   queue-wait wall must stay down. Mirrors [scale_check]: every
   complaint listed, exit 1 on any. *)
let breakdown_check ~queue_wait_max ~min_throughput path =
  let v = read_json path in
  let problems = ref [] in
  let complain fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  let section k =
    match obj v with
    | Some kvs -> field kvs k |> Option.map obj |> Option.join
    | None -> None
  in
  (match section "latency_breakdown" with
   | None -> complain "no latency_breakdown section"
   | Some sizes ->
     if sizes = [] then complain "latency_breakdown is empty";
     List.iter
       (fun (size, row) ->
         match obj row with
         | None -> complain "latency_breakdown.%s is not an object" size
         | Some row ->
           (match field row "stages" |> Option.map obj |> Option.join with
            | None -> complain "latency_breakdown.%s.stages missing" size
            | Some stages ->
              let sum =
                List.fold_left
                  (fun acc (_, stage) ->
                    match obj stage with
                    | Some kvs ->
                      acc +. Option.value ~default:0.0 (num kvs "share")
                    | None -> acc)
                  0.0 stages
              in
              if sum < 0.99 || sum > 1.01 then
                complain
                  "latency_breakdown.%s stage shares sum to %.4f, want ~1.0"
                  size sum;
              let queue_wait =
                match field stages "queue-wait" |> Option.map obj |> Option.join
                with
                | Some kvs -> Option.value ~default:0.0 (num kvs "share")
                | None -> 0.0
              in
              if size = "8B" && queue_wait >= queue_wait_max then
                complain
                  "latency_breakdown.8B queue-wait share %.4f, want < %.2f"
                  queue_wait queue_wait_max))
       sizes);
  (if min_throughput > 0.0 then
     match section "fault_free" with
     | None -> complain "no fault_free section"
     | Some sizes ->
       (match field sizes "8B" |> Option.map obj |> Option.join with
        | None -> complain "fault_free.8B missing"
        | Some row ->
          (match num row "throughput_req_s" with
           | Some n when n >= min_throughput -> ()
           | Some n ->
             complain "fault_free.8B throughput %.0f req/s, want >= %.0f" n
               min_throughput
           | None -> complain "fault_free.8B.throughput_req_s missing")));
  match List.rev !problems with
  | [] ->
    Printf.printf
      "breakdown-check ok: shares sum to ~1.0, 8B queue-wait < %.2f%s\n"
      queue_wait_max
      (if min_throughput > 0.0 then
         Printf.sprintf ", throughput >= %.0f req/s" min_throughput
       else "")
  | ps ->
    Printf.eprintf "breakdown-check: %d problem(s) in %s:\n" (List.length ps)
      path;
    List.iter (fun p -> Printf.eprintf "  %s\n" p) ps;
    exit 1

(* Host-cost gate: per leg, no rise in events, messages or SHA-256
   blocks per request, in the engine heap's peak or in the tracked
   request peak, and at most [words_slack] more minor words per
   request. *)
let host_check ~words_slack base_path fresh_path =
  let problems = ref [] in
  let complain fmt =
    Printf.ksprintf (fun m -> problems := m :: !problems) fmt
  in
  let legs path =
    match obj (read_json path) with
    | Some kvs -> (
      match field kvs "host" |> Option.map obj |> Option.join with
      | Some legs -> legs
      | None ->
        complain "%s: no host section" path;
        [])
    | None -> []
  in
  let base = legs base_path and fresh = legs fresh_path in
  if base = [] then complain "%s: host section is empty" base_path;
  let limits =
    [ ("events_per_req", 0.0); ("msgs_per_req", 0.0);
      ("minor_words_per_req", words_slack); ("sha256_blocks_per_req", 0.0);
      ("queue_peak", 0.0); ("tracked_peak", 0.0) ]
  in
  List.iter
    (fun (leg, row) ->
      match (obj row, field fresh leg |> Option.map obj |> Option.join) with
      | None, _ -> complain "host.%s is not an object" leg
      | Some _, None -> complain "host.%s missing in %s" leg fresh_path
      | Some b, Some f ->
        List.iter
          (fun (k, slack) ->
            match (num b k, num f k) with
            | Some bv, Some fv ->
              Printf.printf "  %-22s %-20s %12.6g %12.6g %6.3fx\n" leg k bv fv
                (if bv > 0.0 then fv /. bv else Float.nan);
              if fv > bv *. (1.0 +. slack) then
                complain "host.%s.%s rose from %.9g to %.9g (allowed +%.0f%%)"
                  leg k bv fv (100.0 *. slack)
            | None, _ -> complain "host.%s.%s missing in %s" leg k base_path
            | Some _, None -> complain "host.%s.%s missing in %s" leg k fresh_path)
          limits)
    base;
  match List.rev !problems with
  | [] ->
    Printf.printf
      "host-check ok: no leg rose in events, messages or SHA-256 blocks per \
       request or in queue or tracked-request peak, minor words within +%.0f%%\n"
      (100.0 *. words_slack)
  | ps ->
    Printf.eprintf "host-check: %d problem(s):\n" (List.length ps);
    List.iter (fun p -> Printf.eprintf "  %s\n" p) ps;
    exit 1

let () =
  let baseline = ref None and fresh = ref None in
  let scale = ref None in
  let clients = ref None in
  let breakdown = ref None in
  let host = ref false in
  let queue_wait_max = ref 0.5 in
  let min_throughput = ref 0.0 in
  let tolerance = ref 0.15 in
  let skips = ref default_skips in
  let list_all = ref false in
  let rec parse = function
    | [] -> ()
    | "--tolerance" :: t :: rest ->
      (match float_of_string_opt t with
      | Some t when t >= 0.0 -> tolerance := t
      | _ ->
        Printf.eprintf "bad --tolerance %S\n" t;
        exit 2);
      parse rest
    | "--skip" :: s :: rest ->
      skips := s :: !skips;
      parse rest
    | "--list" :: rest ->
      list_all := true;
      parse rest
    | "--scale-check" :: path :: rest ->
      scale := Some path;
      parse rest
    | "--clients-check" :: path :: rest ->
      clients := Some path;
      parse rest
    | "--host-check" :: rest ->
      host := true;
      parse rest
    | "--breakdown-check" :: path :: rest ->
      breakdown := Some path;
      parse rest
    | "--queue-wait-max" :: x :: rest ->
      (match float_of_string_opt x with
      | Some x when x > 0.0 -> queue_wait_max := x
      | _ ->
        Printf.eprintf "bad --queue-wait-max %S\n" x;
        exit 2);
      parse rest
    | "--min-throughput" :: x :: rest ->
      (match float_of_string_opt x with
      | Some x when x >= 0.0 -> min_throughput := x
      | _ ->
        Printf.eprintf "bad --min-throughput %S\n" x;
        exit 2);
      parse rest
    | path :: rest ->
      (if !baseline = None then baseline := Some path
       else if !fresh = None then fresh := Some path
       else begin
         Printf.eprintf "unexpected argument %S\n" path;
         exit 2
       end);
      parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  (match !scale with
   | Some path ->
     scale_check path;
     exit 0
   | None -> ());
  (match !clients with
   | Some path ->
     clients_check path;
     exit 0
   | None -> ());
  (match !breakdown with
   | Some path ->
     breakdown_check ~queue_wait_max:!queue_wait_max
       ~min_throughput:!min_throughput path;
     exit 0
   | None -> ());
  let baseline, fresh =
    match (!baseline, !fresh) with
    | Some b, Some f -> (b, f)
    | _ ->
      Printf.eprintf
        "usage: bench_diff BASELINE.json FRESH.json [--tolerance T] [--skip \
         SUBSTR] [--list] | bench_diff --scale-check REPORT.json | bench_diff \
         --clients-check REPORT.json | bench_diff --breakdown-check \
         REPORT.json [--queue-wait-max X] [--min-throughput Y] | bench_diff \
         --host-check BASELINE.json FRESH.json\n";
      exit 2
  in
  if !host then begin
    host_check ~words_slack:0.05 baseline fresh;
    exit 0
  end;
  let contains hay needle =
    let nh = String.length hay and nn = String.length needle in
    let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
    nn = 0 || go 0
  in
  let skipped path = List.exists (contains path) !skips in
  let base_leaves =
    flatten "" (read_json baseline) []
    |> List.filter (fun (p, v) -> (not (skipped p)) && Float.abs v >= 1e-3)
    |> List.sort compare
  in
  let fresh_tbl = Hashtbl.create 256 in
  List.iter
    (fun (p, v) -> Hashtbl.replace fresh_tbl p v)
    (flatten "" (read_json fresh) []);
  let failures = ref [] in
  let compared = ref 0 in
  List.iter
    (fun (path, bv) ->
      match Hashtbl.find_opt fresh_tbl path with
      | None -> failures := Printf.sprintf "%s: missing in %s" path fresh :: !failures
      | Some fv ->
        incr compared;
        let rel = Float.abs (fv -. bv) /. Float.abs bv in
        if !list_all then
          Printf.printf "  %-60s %14.6g %14.6g %+7.2f%%\n" path bv fv
            (100.0 *. (fv -. bv) /. bv);
        if rel > !tolerance then
          failures :=
            Printf.sprintf "%s: baseline %.6g, fresh %.6g (%+.1f%%, tolerance ±%.0f%%)"
              path bv fv
              (100.0 *. (fv -. bv) /. bv)
              (100.0 *. !tolerance)
            :: !failures)
    base_leaves;
  match List.rev !failures with
  | [] ->
    Printf.printf "bench_diff: %d leaves within ±%.0f%% of %s\n" !compared
      (100.0 *. !tolerance) baseline
  | fs ->
    Printf.eprintf "bench_diff: %d regression(s) vs %s:\n" (List.length fs)
      baseline;
    List.iter (fun f -> Printf.eprintf "  %s\n" f) fs;
    exit 1
