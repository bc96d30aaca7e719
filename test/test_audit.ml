(* Tests for the bftaudit subsystem: bus dispatch, trace capture
   (digest determinism, JSONL / Chrome export) and the online safety
   auditor (clean runs stay clean, forged
   violations are caught). *)

open Dessim

let mk_event ?(time = Time.us 1) ?(node = 1) ?(instance = 0) kind =
  { Bftmetrics.Event.time; node; instance; kind }

(* ------------------------------------------------------------------ *)
(* Bus                                                                *)
(* ------------------------------------------------------------------ *)

let test_bus_zero_cost_when_disabled () =
  let p = Bftmetrics.Probe.create () in
  Alcotest.(check bool) "inactive without sinks" false (Bftmetrics.Probe.audit p);
  let tok = Bftmetrics.Probe.subscribe p (fun _ -> ()) in
  Alcotest.(check bool) "active with a sink" true (Bftmetrics.Probe.audit p);
  tok ();
  Alcotest.(check bool) "inactive again" false (Bftmetrics.Probe.audit p)

let test_bus_dispatch () =
  let p = Bftmetrics.Probe.create () in
  let got = ref [] in
  let tok = Bftmetrics.Probe.subscribe p (fun ev -> got := ev :: !got) in
  Bftmetrics.Probe.emit p
    (mk_event (Bftmetrics.Event.Ordered { seq = 1; count = 1; digest = "d" }));
  tok ();
  Bftmetrics.Probe.emit p
    (mk_event (Bftmetrics.Event.Ordered { seq = 2; count = 1; digest = "d" }));
  match !got with
  | [ { Bftmetrics.Event.kind = Bftmetrics.Event.Ordered { seq = 1; _ }; _ } ] -> ()
  | evs -> Alcotest.failf "expected the one Ordered event, got %d" (List.length evs)

(* ------------------------------------------------------------------ *)
(* Capture: export formats and digest determinism                     *)
(* ------------------------------------------------------------------ *)

let test_capture_export () =
  let p = Bftmetrics.Probe.create () in
  let c = Bftaudit.Capture.attach p in
  Bftmetrics.Probe.emit p
    (mk_event
       (Bftmetrics.Event.Request_received { client = 0; rid = 1; size = 8 }));
  Bftmetrics.Probe.emit p
    (mk_event ~time:(Time.us 2)
       (Bftmetrics.Event.Executed { client = 0; rid = 1; digest = "d" }));
  Alcotest.(check int) "count" 2 (Bftaudit.Capture.count c);
  Alcotest.(check int) "digest is hex sha256" 64
    (String.length (Bftaudit.Capture.digest c));
  let jsonl = Filename.temp_file "audit" ".jsonl" in
  let chrome = Filename.temp_file "audit" ".json" in
  Bftaudit.Capture.write_jsonl c jsonl;
  Bftaudit.Capture.write_chrome_trace c chrome;
  Bftaudit.Capture.detach c;
  let read_all path =
    let ic = open_in path in
    let n = in_channel_length ic in
    let s = really_input_string ic n in
    close_in ic;
    Sys.remove path;
    s
  in
  let lines = String.split_on_char '\n' (String.trim (read_all jsonl)) in
  Alcotest.(check int) "jsonl lines" 2 (List.length lines);
  List.iter
    (fun l -> Alcotest.(check bool) "jsonl object" true (l.[0] = '{')) lines;
  let ch = read_all chrome in
  Alcotest.(check bool) "chrome envelope" true
    (ch.[0] = '{'
    && String.length ch > 20
    &&
    let rec contains i =
      i + 11 <= String.length ch
      && (String.sub ch i 11 = "traceEvents" || contains (i + 1))
    in
    contains 0)

let run_captured_cluster () =
  let p = Bftmetrics.Probe.create () in
  let c = Bftaudit.Capture.attach p in
  let params = Rbft.Params.default ~f:1 in
  let cluster = Rbft.Cluster.create ~probe:p ~seed:7L ~clients:3 params in
  Array.iter (fun cl -> Rbft.Client.set_rate cl 400.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.ms 300);
  let digest = Bftaudit.Capture.digest c and count = Bftaudit.Capture.count c in
  Bftaudit.Capture.detach c;
  (digest, count)

let test_digest_deterministic () =
  let d1, c1 = run_captured_cluster () in
  let d2, c2 = run_captured_cluster () in
  Alcotest.(check bool) "trace is non-trivial" true (c1 > 1000);
  Alcotest.(check int) "same event count" c1 c2;
  Alcotest.(check string) "same-seed runs give identical digests" d1 d2

(* ------------------------------------------------------------------ *)
(* Auditor                                                            *)
(* ------------------------------------------------------------------ *)

let invariants a =
  List.map (fun v -> v.Bftaudit.Auditor.invariant) (Bftaudit.Auditor.violations a)

let test_auditor_clean_run () =
  let p = Bftmetrics.Probe.create () in
  let a = Bftaudit.Auditor.attach ~probe:p ~n:4 ~f:1 () in
  let params = Rbft.Params.default ~f:1 in
  let cluster = Rbft.Cluster.create ~probe:p ~seed:11L ~clients:3 params in
  Array.iter (fun cl -> Rbft.Client.set_rate cl 400.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.ms 300);
  let checked = Bftaudit.Auditor.events_checked a in
  Bftaudit.Auditor.detach a;
  Alcotest.(check bool) "events were checked" true (checked > 1000);
  Alcotest.(check (list string)) "no violations" [] (invariants a)

let test_auditor_flags_double_execution () =
  let p = Bftmetrics.Probe.create () in
  let a = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  let exec = Bftmetrics.Event.Executed { client = 0; rid = 1; digest = "d" } in
  Bftmetrics.Probe.emit p (mk_event exec);
  Bftmetrics.Probe.emit p (mk_event ~time:(Time.us 2) exec);
  Bftaudit.Auditor.detach a;
  Alcotest.(check (list string)) "double execution flagged"
    [ "double-execution" ] (invariants a)

let test_auditor_flags_disagreement () =
  let p = Bftmetrics.Probe.create () in
  let a = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  Bftmetrics.Probe.emit p
    (mk_event ~node:1
       (Bftmetrics.Event.Ordered { seq = 5; count = 1; digest = "aaaa" }));
  Bftmetrics.Probe.emit p
    (mk_event ~node:2
       (Bftmetrics.Event.Ordered { seq = 5; count = 1; digest = "bbbb" }));
  Bftaudit.Auditor.detach a;
  Alcotest.(check (list string)) "disagreement flagged" [ "agreement" ]
    (invariants a)

let test_auditor_flags_thin_prepare_quorum () =
  let p = Bftmetrics.Probe.create () in
  let a = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  (* Only the primary's pre-prepare backs this ordering: 1 vote < 2f+1. *)
  Bftmetrics.Probe.emit p
    (mk_event ~node:0
       (Bftmetrics.Event.Pre_prepare_sent
          { view = 0; seq = 1; count = 1; digest = "aaaa" }));
  Bftmetrics.Probe.emit p
    (mk_event ~node:1
       (Bftmetrics.Event.Ordered { seq = 1; count = 1; digest = "aaaa" }));
  Bftaudit.Auditor.detach a;
  Alcotest.(check (list string)) "thin quorum flagged" [ "prepare-quorum" ]
    (invariants a)

let test_auditor_skips_declared_faulty () =
  let p = Bftmetrics.Probe.create () in
  let a = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  Bftmetrics.Probe.declare_faulty p [ 2 ];
  Bftmetrics.Probe.emit p
    (mk_event ~node:1
       (Bftmetrics.Event.Ordered { seq = 5; count = 1; digest = "aaaa" }));
  (* The divergent ordering comes from a node the attack declared
     Byzantine: its events must not count against the correct ones. *)
  Bftmetrics.Probe.emit p
    (mk_event ~node:2
       (Bftmetrics.Event.Ordered { seq = 5; count = 1; digest = "bbbb" }));
  Bftaudit.Auditor.detach a;
  Alcotest.(check (list string)) "faulty node ignored" [] (invariants a)

let suites =
  [
    ( "audit",
      [
        Alcotest.test_case "bus zero-cost when disabled" `Quick
          test_bus_zero_cost_when_disabled;
        Alcotest.test_case "bus dispatch" `Quick test_bus_dispatch;
        Alcotest.test_case "capture export (jsonl + chrome)" `Quick
          test_capture_export;
        Alcotest.test_case "same-seed digests are identical" `Quick
          test_digest_deterministic;
        Alcotest.test_case "auditor: clean f=1 run" `Quick test_auditor_clean_run;
        Alcotest.test_case "auditor: double execution" `Quick
          test_auditor_flags_double_execution;
        Alcotest.test_case "auditor: ordering disagreement" `Quick
          test_auditor_flags_disagreement;
        Alcotest.test_case "auditor: thin prepare quorum" `Quick
          test_auditor_flags_thin_prepare_quorum;
        Alcotest.test_case "auditor: declared-faulty nodes skipped" `Quick
          test_auditor_skips_declared_faulty;
      ] );
  ]
