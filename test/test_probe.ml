(* Tests for the per-run probe: runs interleaved in one process observe
   exactly what each observes alone, a run on its own probe and every
   driver leave Probe.default untouched, and the one Chrome trace
   writer reproduces the committed exports of a fixed run byte for
   byte. *)

open Dessim
module Probe = Bftmetrics.Probe

(* ------------------------------------------------------------------ *)
(* Isolation                                                          *)
(* ------------------------------------------------------------------ *)

type run = {
  cluster : Rbft.Cluster.t;
  probe : Probe.t;
  capture : Bftaudit.Capture.t;
  auditor : Bftaudit.Auditor.t;
}

(* A run with the auditor, metrics and spans on, under worst-attack-1
   when [attack]. *)
let start ~seed ~attack =
  let probe = Probe.create () in
  Probe.set_metrics probe true;
  Probe.enable_spans ~sample:2 probe;
  let capture = Bftaudit.Capture.attach probe in
  let auditor = Bftaudit.Auditor.attach ~probe ~n:4 ~f:1 () in
  let cluster = Rbft.Cluster.create ~probe ~seed ~clients:3 (Rbft.Params.default ~f:1) in
  if attack then Rbft.Attacks.worst_attack_1 cluster;
  Array.iter (fun c -> Rbft.Client.set_rate c 400.0) (Rbft.Cluster.clients cluster);
  { cluster; probe; capture; auditor }

(* Audit digest, span digest, metric values and audited event count. *)
let observe r =
  ( Bftaudit.Capture.digest r.capture,
    Bftspan.Tracer.digest r.probe,
    Bftmetrics.Export.json_of_snapshot (Probe.registry r.probe),
    Bftaudit.Auditor.events_checked r.auditor )

let horizon = Time.ms 300

let alone ~seed ~attack =
  let r = start ~seed ~attack in
  Rbft.Cluster.run_for r.cluster horizon;
  observe r

let default_state () =
  let p = Probe.default in
  ( Bftmetrics.Export.json_of_snapshot (Probe.registry p),
    Probe.span_count p,
    List.length (Probe.footprint_list p),
    (Probe.audit p, Probe.metrics p, Probe.spans p),
    List.init 4 (Probe.is_declared p) )

let same name (da, sa, ma, ea) (db, sb, mb, eb) =
  Alcotest.(check string) (name ^ ": audit digest") da db;
  Alcotest.(check string) (name ^ ": span digest") sa sb;
  Alcotest.(check string) (name ^ ": metric values") ma mb;
  Alcotest.(check int) (name ^ ": events checked") ea eb

let test_interleaved_runs_isolated () =
  let before = default_state () in
  let a = start ~seed:3L ~attack:false in
  let b = start ~seed:9L ~attack:true in
  for _ = 1 to 30 do
    Rbft.Cluster.run_for a.cluster (Time.ms 10);
    Rbft.Cluster.run_for b.cluster (Time.ms 10)
  done;
  let ((_, _, _, ea) as oa) = observe a in
  Alcotest.(check bool) "runs were audited" true (ea > 1000);
  Alcotest.(check bool) "spans were recorded" true (Probe.span_count a.probe > 100);
  same "fault-free run" oa (alone ~seed:3L ~attack:false);
  same "attacked run" (observe b) (alone ~seed:9L ~attack:true);
  Alcotest.(check bool) "Probe.default untouched" true (before = default_state ())

let test_all_off_probe_leaves_default () =
  let before = default_state () in
  let probe = Probe.create () in
  let cluster = Rbft.Cluster.create ~probe ~seed:5L ~clients:3 (Rbft.Params.default ~f:1) in
  Rbft.Attacks.worst_attack_1 cluster;
  Array.iter (fun c -> Rbft.Client.set_rate c 400.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.ms 200);
  Alcotest.(check bool) "the run made progress" true (Rbft.Cluster.total_executed cluster > 0);
  Alcotest.(check bool) "attack declared on the run's probe" true (Probe.is_declared probe 3);
  Alcotest.(check bool) "Probe.default untouched" true (before = default_state ())

(* Every driver builds on a probe of its own: an audited harness leg
   per stack with metrics and spans on, a chaos scenario and a
   model-checker search all leave Probe.default as they found it. *)
let test_drivers_leave_default () =
  let before = default_state () in
  let audit = Bftharness.Audit.create ~enabled:true () in
  let leg (type c) (module S : Pbftcore.Cluster_core.STACK with type Cluster.t = c) build =
    let load = Bftworkload.Loadshape.static ~duration:(Time.ms 100) ~clients:2 ~rate:200.0 in
    let r =
      Bftharness.Experiments.run ~audit ~metrics:true ~span_sample:2 (module S) ~f:1
        ~load:(Bftharness.Experiments.Shape load) build
    in
    Alcotest.(check bool) "the leg made progress" true (S.Cluster.total_executed r.cluster > 0)
  in
  leg (module Rbft) (fun ~probe clients -> Flavour.rbft_cluster ~probe ~clients ~f:1 Rbft);
  leg (module Aardvark) (fun ~probe clients ->
      Aardvark.Cluster.create ~probe ~clients (Aardvark.Node.default_config ~f:1));
  leg (module Spinning) (fun ~probe clients ->
      Spinning.Cluster.create ~probe ~clients (Spinning.Node.default_config ~f:1));
  leg (module Prime) (fun ~probe clients ->
      Prime.Cluster.create ~probe ~clients (Prime.Node.default_config ~f:1));
  Alcotest.(check int) "four audited legs" 4 audit.Bftharness.Audit.runs;
  Alcotest.(check bool) "the scenario passed" true
    (Bftchaos.Runner.ok (Bftchaos.Runner.run (Test_chaos.base_scenario ())));
  Alcotest.(check bool) "the search was clean" true
    ((Bftmc.Search.run Test_mc.small_cfg).Bftmc.Search.counterexample = None);
  Alcotest.(check bool) "Probe.default untouched" true (before = default_state ())

(* ------------------------------------------------------------------ *)
(* Chrome exports                                                     *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  end
  else Sys.remove path

(* The fixed run behind test/fixtures/chrome: RBFT f=1, one client at
   100 req/s for 25 ms, audited, traced and recorded, plus a GC window
   over a fabricated heap trajectory. *)
let write_exports out =
  let path f = Filename.concat out f in
  let probe = Probe.create () in
  let capture = Bftaudit.Capture.attach probe in
  Probe.enable_spans probe;
  let cluster =
    Rbft.Cluster.create ~probe ~seed:5L ~clients:1 ~payload_size:8 (Rbft.Params.default ~f:1)
  in
  let config =
    {
      Bftdoctor.Doctor.dir = Some (path "bundle");
      seed = 5L;
      config_fields = [ ("protocol", "rbft") ];
      context = None;
      scenario = None;
      triggers = [];
    }
  in
  let doctor = Bftdoctor.Doctor.attach config probe (Rbft.Cluster.engine cluster) in
  Array.iter (fun c -> Rbft.Client.set_rate c 100.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.ms 25);
  Bftdoctor.Doctor.force doctor ~reason:"fixture";
  Bftdoctor.Doctor.detach doctor;
  Bftaudit.Capture.detach capture;
  Probe.disable_spans probe;
  Bftaudit.Capture.write_chrome_trace capture (path "audit.json");
  Bftspan.Analyze.write_chrome ~audit:capture (Probe.span_array probe) (path "spans.json");
  (match Bftdoctor.Doctor.incidents doctor with
   | [ { Bftdoctor.Doctor.i_dir = Some d; _ } ] ->
     Bftdoctor.Analyze.write_chrome (Bftdoctor.Bundle.load ~dir:d) (path "bundle.json")
   | _ -> Alcotest.fail "expected one bundle");
  let live = ref 1_000_000 in
  let read_stat () =
    { (Gc.quick_stat ()) with
      Gc.live_words = !live;
      heap_words = 2 * !live;
      minor_collections = !live / 1000;
      major_collections = !live / 100_000;
      minor_words = float_of_int (3 * !live) }
  in
  let g = Bftcap.Gcstats.create ~read_stat probe in
  for i = 1 to 6 do
    Bftcap.Gcstats.sample g ~now:(Time.ms (10 * i));
    live := !live + 12_345
  done;
  Bftcap.Gcstats.write_chrome_counters g (path "gc.json")

let test_chrome_exports_match_fixtures () =
  let out = Filename.concat (Filename.get_temp_dir_name ()) "probe-chrome-exports" in
  if Sys.file_exists out then rm_rf out;
  Sys.mkdir out 0o755;
  Fun.protect
    ~finally:(fun () -> rm_rf out)
    (fun () ->
      write_exports out;
      List.iter
        (fun f ->
          Alcotest.(check string) (f ^ " byte-identical")
            (read_file (Filename.concat "fixtures/chrome" f))
            (read_file (Filename.concat out f)))
        [ "audit.json"; "spans.json"; "bundle.json"; "gc.json" ])

let suites =
  [
    ( "probe.isolation",
      [
        Alcotest.test_case "interleaved runs observe what they observe alone" `Quick
          test_interleaved_runs_isolated;
        Alcotest.test_case "an all-off probe leaves Probe.default untouched" `Quick
          test_all_off_probe_leaves_default;
        Alcotest.test_case "every driver leaves Probe.default untouched" `Quick
          test_drivers_leave_default;
      ] );
    ( "probe.chrome",
      [
        Alcotest.test_case "exports match the committed fixtures" `Quick
          test_chrome_exports_match_fixtures;
      ] );
  ]
