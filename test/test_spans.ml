(* Tests for bftspan: causal per-request tracing.

   - smoke: a fault-free RBFT run yields well-formed span trees whose
     per-stage attribution sums to exactly the end-to-end latency
   - sampling: 1/N keeps only rids divisible by N
   - determinism: same seed, same span digest
   - chaos: crash/partition scenarios keep committed trees orphan-free;
     requests dropped by a partition surface as open roots
   - JSONL and combined Chrome-trace round trips
   - synthetic critical path with known attribution *)

open Dessim

(* Each test traces on a probe of its own. *)
let with_tracer ?(sample = 1) f =
  let p = Bftmetrics.Probe.create () in
  Bftmetrics.Probe.enable_spans ~sample p;
  f p

let run_rbft ?(attack = fun _ -> ()) ?(seed = 42) ?(seconds = 0.3) ?(clients = 3)
    ?(rate = 400.0) p =
  let cluster =
    Rbft.Cluster.create ~probe:p ~seed:(Int64.of_int seed) ~clients ~payload_size:8
      (Rbft.Params.default ~f:1)
  in
  attack cluster;
  Array.iter (fun c -> Rbft.Client.set_rate c rate) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.of_sec_f seconds);
  cluster

(* ------------------------------------------------------------------ *)
(* Smoke: attribution sums, tree invariants                           *)
(* ------------------------------------------------------------------ *)

let test_smoke () =
  let spans =
    with_tracer (fun p ->
        ignore (run_rbft p);
        Bftmetrics.Probe.span_array p)
  in
  let s = Bftspan.Analyze.summarize spans in
  Alcotest.(check bool) "spans recorded" true (Array.length spans > 100);
  Alcotest.(check bool) "requests committed" true (s.Bftspan.Analyze.committed > 10);
  Alcotest.(check (list string)) "trees well-formed" []
    (Bftspan.Analyze.check_trees spans);
  Alcotest.(check int) "no orphans" 0 s.Bftspan.Analyze.orphans;
  (* The acceptance bound: stages sum to total latency within 1%
     (by construction the walk telescopes, so it is exact). *)
  Alcotest.(check bool) "shares sum to 1"
    true
    (Float.abs (s.Bftspan.Analyze.share_sum -. 1.0) <= 0.01);
  Alcotest.(check bool) "positive p50" true (s.Bftspan.Analyze.total_p50_ms > 0.0);
  (match s.Bftspan.Analyze.traces with
   | [] -> Alcotest.fail "no committed traces"
   | slowest :: _ ->
     let _, d = Bftspan.Analyze.dominant_stage slowest in
     Alcotest.(check bool) "slowest request names a dominant stage" true
       (d > Time.zero));
  (* Ordering phases must actually appear in the attribution. *)
  let stage_tags =
    List.map (fun r -> r.Bftspan.Analyze.tag) s.Bftspan.Analyze.stages
  in
  List.iter
    (fun tag ->
      Alcotest.(check bool)
        (Bftspan.Tag.name tag ^ " attributed")
        true (List.mem tag stage_tags))
    [ Bftspan.Tag.Net_transit; Bftspan.Tag.Batch_wait; Bftspan.Tag.Prepare;
      Bftspan.Tag.Commit; Bftspan.Tag.Reply ]

let test_disabled_records_nothing () =
  let p = Bftmetrics.Probe.create () in
  ignore (run_rbft ~seconds:0.05 p);
  Alcotest.(check int) "no spans when disabled" 0 (Bftmetrics.Probe.span_count p)

let test_sampling () =
  let spans =
    with_tracer ~sample:4 (fun p ->
        ignore (run_rbft p);
        Bftmetrics.Probe.span_array p)
  in
  Alcotest.(check bool) "sampled run recorded spans" true (Array.length spans > 0);
  Array.iter
    (fun s ->
      if s.Bftspan.Span.rid mod 4 <> 0 then
        Alcotest.failf "span %d traces unsampled rid %d" s.Bftspan.Span.id
          s.Bftspan.Span.rid)
    spans

(* ------------------------------------------------------------------ *)
(* Determinism                                                        *)
(* ------------------------------------------------------------------ *)

let test_determinism () =
  let digest_of_run seed =
    with_tracer (fun p ->
        ignore (run_rbft ~seed p);
        (Bftspan.Tracer.digest p, Bftmetrics.Probe.span_count p))
  in
  let d1, c1 = digest_of_run 7 in
  let d2, c2 = digest_of_run 7 in
  Alcotest.(check int) "same span count" c1 c2;
  Alcotest.(check string) "same seed, same digest" d1 d2;
  let d3, _ = digest_of_run 8 in
  Alcotest.(check bool) "different seed, different digest" true (d1 <> d3)

(* ------------------------------------------------------------------ *)
(* Chaos                                                              *)
(* ------------------------------------------------------------------ *)

let chaos_scenario ~name ~faults ~drain =
  {
    Bftchaos.Scenario.name;
    protocol = Bftchaos.Scenario.Rbft;
    f = 1;
    seed = 42L;
    duration = Time.ms 500;
    drain;
    workload = { Bftchaos.Scenario.clients = 2; rate = 60.0; payload = 8 };
    faults;
    lambda = Time.zero;
    mutation = None;
  }

let test_chaos_crash_trees () =
  (* One crash within f, full drain: the run stays live, so every
     sampled request must close into a well-formed orphan-free tree. *)
  let spans =
    with_tracer (fun p ->
        let faults =
          [ { Bftchaos.Fault.at = Time.ms 100; until = Time.ms 300;
              kind = Bftchaos.Fault.Crash { node = 2 } } ]
        in
        let r =
          Bftchaos.Runner.run ~probe:p
            (chaos_scenario ~name:"span-crash" ~faults ~drain:(Time.sec 1))
        in
        Alcotest.(check bool) "run live through crash" true
          (Bftchaos.Runner.ok r);
        Bftmetrics.Probe.span_array p)
  in
  let s = Bftspan.Analyze.summarize spans in
  Alcotest.(check (list string)) "trees well-formed under crash" []
    (Bftspan.Analyze.check_trees spans);
  Alcotest.(check bool) "requests committed" true (s.Bftspan.Analyze.committed > 0);
  Alcotest.(check int) "all sampled requests closed" 0
    s.Bftspan.Analyze.open_roots

let test_chaos_partition_open_roots () =
  (* Majority partition until the end of the chaos phase and a drain
     too short to recover: requests sent into the partition cannot
     complete, and the analyzer must flag them as open roots rather
     than mis-attribute them. *)
  let spans =
    with_tracer (fun p ->
        let faults =
          [ { Bftchaos.Fault.at = Time.ms 100; until = Time.ms 500;
              kind = Bftchaos.Fault.Partition { group = [ 0; 1 ] } } ]
        in
        ignore
          (Bftchaos.Runner.run ~probe:p
             (chaos_scenario ~name:"span-partition" ~faults ~drain:(Time.ms 1)));
        Bftmetrics.Probe.span_array p)
  in
  let s = Bftspan.Analyze.summarize spans in
  Alcotest.(check bool) "dropped requests flagged as open roots" true
    (s.Bftspan.Analyze.open_roots > 0);
  Alcotest.(check (list string)) "trees still well-formed" []
    (Bftspan.Analyze.check_trees spans);
  (* Open roots carry no attribution: shares still telescope over the
     committed subset only. *)
  if s.Bftspan.Analyze.committed > 0 then
    Alcotest.(check bool) "committed shares still sum to 1" true
      (Float.abs (s.Bftspan.Analyze.share_sum -. 1.0) <= 0.01)

(* ------------------------------------------------------------------ *)
(* JSONL round trip                                                   *)
(* ------------------------------------------------------------------ *)

let test_jsonl_roundtrip () =
  let p, spans =
    with_tracer (fun p ->
        ignore (run_rbft ~seconds:0.1 p);
        (p, Bftmetrics.Probe.span_array p))
  in
  let path = Filename.temp_file "spans" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Bftspan.Tracer.write_jsonl p path;
      let back = Bftspan.Analyze.read_jsonl path in
      Alcotest.(check int) "span count survives" (Array.length spans)
        (Array.length back);
      Array.iteri
        (fun i s ->
          Alcotest.(check string)
            (Printf.sprintf "span %d survives" i)
            (Bftspan.Span.to_json s)
            (Bftspan.Span.to_json back.(i)))
        spans)

(* ------------------------------------------------------------------ *)
(* Combined Chrome export (satellite: bftaudit alignment)             *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let count_substring hay needle =
  let n = String.length needle and h = String.length hay in
  let count = ref 0 in
  for i = 0 to h - n do
    if String.sub hay i n = needle then incr count
  done;
  !count

let test_chrome_combined () =
  let p = Bftmetrics.Probe.create () in
  Bftmetrics.Probe.enable_spans p;
  let capture = Bftaudit.Capture.attach p in
  let spans =
    ignore (run_rbft ~seconds:0.1 p);
    Bftmetrics.Probe.span_array p
  in
  let audit_events = Bftaudit.Capture.count capture in
  let closed =
    Array.fold_left
      (fun acc s -> if Bftspan.Span.is_open s then acc else acc + 1)
      0 spans
  in
  let path = Filename.temp_file "combined" ".json" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      Bftaudit.Capture.detach capture)
    (fun () ->
      Bftspan.Analyze.write_chrome ~audit:capture spans path;
      let body = read_file path in
      Alcotest.(check bool) "has preamble" true
        (String.length body > 2 && body.[0] = '{');
      Alcotest.(check string) "closes the event array" "]}"
        (String.sub body (String.length body - 2) 2);
      (* Round trip by event counts: every closed span becomes one
         complete event, every audit event one instant event, in the
         same pid (node) / tid (instance) timeline. *)
      Alcotest.(check int) "all closed spans exported" closed
        (count_substring body {|"ph":"X"|});
      Alcotest.(check int) "all audit events exported" audit_events
        (count_substring body {|"ph":"i"|});
      Alcotest.(check bool) "audit events present" true (audit_events > 0);
      (* Both event kinds appear on node 1's timeline. *)
      Alcotest.(check bool) "span on node 1" true
        (count_substring body {|"ph":"X","ts"|} > 0);
      Alcotest.(check bool) "shared pid space" true
        (count_substring body {|"pid":1,|} > 1))

(* ------------------------------------------------------------------ *)
(* Synthetic critical path                                            *)
(* ------------------------------------------------------------------ *)

let test_critical_path_synthetic () =
  with_tracer (fun p ->
      let module T = Bftmetrics.Probe in
      let root =
        T.request_root p ~client:0 ~rid:0 (Time.ns 0)
      in
      let a =
        T.span p ~parent:root ~tag:Bftspan.Tag.Net_transit ~node:1 ~instance:0
          ~t0:(Time.ns 0) ~t1:(Time.ns 10)
      in
      let b =
        T.span p ~parent:a ~tag:Bftspan.Tag.Prepare ~node:1 ~instance:0
          ~t0:(Time.ns 10) ~t1:(Time.ns 60)
      in
      ignore
        (T.span p ~parent:b ~tag:Bftspan.Tag.Reply ~node:1 ~instance:0
           ~t0:(Time.ns 70) ~t1:(Time.ns 95));
      T.finish p root ~t1:(Time.ns 100);
      let s = Bftspan.Analyze.summarize (T.span_array p) in
      Alcotest.(check int) "one committed trace" 1 s.Bftspan.Analyze.committed;
      let t = List.hd s.Bftspan.Analyze.traces in
      Alcotest.(check bool) "total is 100ns" true
        (t.Bftspan.Analyze.total = Time.ns 100);
      let budget tag =
        match List.assoc_opt tag t.Bftspan.Analyze.budget with
        | Some d -> (d : Time.t :> int)
        | None -> 0
      in
      (* Last-finisher walk: [95,100] to the root tag; [70,95] to the
         reply, which also absorbs the (60,70] gap before it; [10,60]
         to prepare; [0,10] to the transit. *)
      Alcotest.(check int) "client tail" 5 (budget Bftspan.Tag.Client);
      Alcotest.(check int) "reply + gap" 35 (budget Bftspan.Tag.Reply);
      Alcotest.(check int) "prepare" 50 (budget Bftspan.Tag.Prepare);
      Alcotest.(check int) "net-transit" 10 (budget Bftspan.Tag.Net_transit);
      let sum =
        List.fold_left
          (fun acc (_, d) -> Time.add acc d)
          Time.zero t.Bftspan.Analyze.budget
      in
      Alcotest.(check bool) "budget telescopes exactly" true
        (sum = t.Bftspan.Analyze.total);
      Alcotest.(check bool) "share_sum exact" true
        (Float.abs (s.Bftspan.Analyze.share_sum -. 1.0) < 1e-9))

(* ------------------------------------------------------------------ *)
(* Tag codec                                                          *)
(* ------------------------------------------------------------------ *)

let test_tag_roundtrip () =
  List.iter
    (fun tag ->
      match Bftspan.Tag.of_name (Bftspan.Tag.name tag) with
      | Some back ->
        Alcotest.(check string) "tag survives" (Bftspan.Tag.name tag)
          (Bftspan.Tag.name back)
      | None -> Alcotest.failf "tag %s does not parse" (Bftspan.Tag.name tag))
    Bftspan.Tag.all

(* Regression for the final-partial-chunk flush: a capture smaller
   than one 64 KiB chunk digests as exactly one chained fold,
   sha256(sha256(seed) ^ jsonl) — recomputable by hand with the raw
   hash. Before the flush fix, [hex] on a sub-chunk capture returned
   the bare seed digest: every line since the last chunk boundary
   silently dropped out, so a truncated run collided with its own
   (empty) prefix. *)
let test_truncated_digest () =
  with_tracer (fun p ->
      for rid = 1 to 12 do
        let id =
          Bftmetrics.Probe.request_root p ~client:0 ~rid (Time.ms rid)
        in
        Bftmetrics.Probe.finish p id ~t1:(Time.ms (rid + 5))
      done;
      let n = Bftmetrics.Probe.span_count p in
      Alcotest.(check int) "all roots captured" 12 n;
      (* manual recomputation over the whole (sub-chunk) capture *)
      let jsonl = Buffer.create 1024 in
      Array.iter
        (fun s ->
          Bftspan.Span.write_json jsonl s;
          Buffer.add_char jsonl '\n')
        (Bftmetrics.Probe.span_array p);
      Alcotest.(check bool) "capture fits one chunk" true
        (Buffer.length jsonl < (64 * 1024) - 256);
      let manual =
        Bftcrypto.Sha256.to_hex
          (Bftcrypto.Sha256.digest_string
             (Bftcrypto.Sha256.digest_string Bftspan.Tracer.digest_seed
             ^ Buffer.contents jsonl))
      in
      Alcotest.(check string) "partial chunk folds into the chain" manual
        (Bftspan.Tracer.digest p);
      (* the same discipline through Chunkdig directly *)
      let d = Bftspan.Chunkdig.create ~seed:Bftspan.Tracer.digest_seed () in
      String.split_on_char '\n' (Buffer.contents jsonl)
      |> List.iter (fun line ->
             if line <> "" then Bftspan.Chunkdig.add_string_line d line);
      Alcotest.(check string) "chunkdig agrees" manual (Bftspan.Chunkdig.hex d);
      (* prefix sensitivity: a truncated capture digests its exact
         prefix and differs from the full digest *)
      let d7 = Bftspan.Tracer.digest_upto p 7 in
      Alcotest.(check bool) "truncation changes the digest" true
        (d7 <> Bftspan.Tracer.digest p);
      Alcotest.(check string) "digest_upto count = digest"
        (Bftspan.Tracer.digest p)
        (Bftspan.Tracer.digest_upto p n);
      (* the 7-span prefix recomputed by hand *)
      let prefix = Buffer.create 512 in
      Array.iteri
        (fun i s ->
          if i < 7 then begin
            Bftspan.Span.write_json prefix s;
            Buffer.add_char prefix '\n'
          end)
        (Bftmetrics.Probe.span_array p);
      let manual7 =
        Bftcrypto.Sha256.to_hex
          (Bftcrypto.Sha256.digest_string
             (Bftcrypto.Sha256.digest_string Bftspan.Tracer.digest_seed
             ^ Buffer.contents prefix))
      in
      Alcotest.(check string) "truncated digest is the prefix digest" manual7
        d7)

let suites =
  [
    ( "spans.tracer",
      [
        Alcotest.test_case "fault-free smoke" `Quick test_smoke;
        Alcotest.test_case "disabled records nothing" `Quick
          test_disabled_records_nothing;
        Alcotest.test_case "1/N sampling" `Quick test_sampling;
        Alcotest.test_case "deterministic digest" `Quick test_determinism;
        Alcotest.test_case "truncated-capture digest" `Quick
          test_truncated_digest;
        Alcotest.test_case "tag codec" `Quick test_tag_roundtrip;
      ] );
    ( "spans.chaos",
      [
        Alcotest.test_case "crash keeps trees well-formed" `Quick
          test_chaos_crash_trees;
        Alcotest.test_case "partition flags open roots" `Quick
          test_chaos_partition_open_roots;
      ] );
    ( "spans.export",
      [
        Alcotest.test_case "jsonl round trip" `Quick test_jsonl_roundtrip;
        Alcotest.test_case "combined chrome export" `Quick test_chrome_combined;
      ] );
    ( "spans.analyze",
      [
        Alcotest.test_case "synthetic critical path" `Quick
          test_critical_path_synthetic;
      ] );
  ]
