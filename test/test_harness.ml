(* Tests for the experiment harness utilities and the attack library. *)

open Dessim
open Bftharness

(* ------------------------------------------------------------------ *)
(* Calibration                                                        *)
(* ------------------------------------------------------------------ *)

let test_calibrate_anchors () =
  let p8 = Calibrate.peak_rate Calibrate.Rbft ~size:8 in
  let p4k = Calibrate.peak_rate Calibrate.Rbft ~size:4096 in
  Alcotest.(check bool) "8B above 4kB" true (p8 > p4k);
  (* Interpolation is monotone in size. *)
  let prev = ref p8 in
  List.iter
    (fun size ->
      let p = Calibrate.peak_rate Calibrate.Rbft ~size in
      Alcotest.(check bool) (Printf.sprintf "monotone at %d" size) true (p <= !prev);
      prev := p)
    [ 64; 512; 1024; 2048; 4096 ]

let test_calibrate_orderings () =
  (* The paper's fault-free ordering at 8B: Spinning > RBFT > Prime. *)
  let peak p = Calibrate.peak_rate p ~size:8 in
  Alcotest.(check bool) "spinning fastest" true
    (peak Calibrate.Spinning > peak Calibrate.Rbft);
  Alcotest.(check bool) "prime slowest" true (peak Calibrate.Prime < peak Calibrate.Rbft);
  (* And at 4kB: RBFT > Aardvark (identifier ordering wins). *)
  Alcotest.(check bool) "rbft beats aardvark at 4kB" true
    (Calibrate.peak_rate Calibrate.Rbft ~size:4096
     > Calibrate.peak_rate Calibrate.Aardvark ~size:4096)

let test_calibrate_f2_scales_down () =
  List.iter
    (fun proto ->
      Alcotest.(check bool)
        (Calibrate.name proto ^ " f=2 slower")
        true
        (Calibrate.peak_rate ~f:2 proto ~size:8 < Calibrate.peak_rate ~f:1 proto ~size:8))
    [ Calibrate.Rbft; Calibrate.Aardvark; Calibrate.Spinning; Calibrate.Prime ]

let test_saturating_vs_peak () =
  (* RBFT is driven slightly above peak, the collapse-prone baselines
     slightly below. *)
  Alcotest.(check bool) "rbft above" true
    (Calibrate.saturating_rate Calibrate.Rbft ~size:8
     > Calibrate.peak_rate Calibrate.Rbft ~size:8);
  List.iter
    (fun proto ->
      Alcotest.(check bool)
        (Calibrate.name proto ^ " below")
        true
        (Calibrate.saturating_rate proto ~size:8 < Calibrate.peak_rate proto ~size:8))
    [ Calibrate.Aardvark; Calibrate.Spinning; Calibrate.Prime ]

(* ------------------------------------------------------------------ *)
(* Report                                                             *)
(* ------------------------------------------------------------------ *)

let test_report_formatters () =
  Alcotest.(check string) "pct" "97.0%" (Report.pct 0.97);
  Alcotest.(check string) "kreq" "35.1" (Report.kreq 35_100.0);
  Alcotest.(check string) "f1" "1.5" (Report.f1 1.49);
  Alcotest.(check string) "f2" "1.49" (Report.f2 1.49)

let test_report_print_smoke () =
  (* Printing must not raise, including ragged rows. *)
  Report.print
    {
      Report.id = "test";
      title = "smoke";
      columns = [ "a"; "b" ];
      rows = [ [ "1" ]; [ "22"; "333"; "4444" ] ];
      notes = [ "note" ];
    }

(* ------------------------------------------------------------------ *)
(* Attacks                                                            *)
(* ------------------------------------------------------------------ *)

let test_worst_attack_1_configures () =
  let p = Bftmetrics.Probe.create () in
  let params = Rbft.Params.default ~f:1 in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:2 params in
  Rbft.Attacks.worst_attack_1 cluster;
  (* Faulty node is node 3; master primary node is node 0. *)
  let faults = Rbft.Node.faults (Rbft.Cluster.node cluster 3) in
  Alcotest.(check (list int)) "floods the master primary node" [ 0 ]
    faults.Rbft.Node.flood_targets;
  Alcotest.(check bool) "does not propagate" true faults.Rbft.Node.no_propagate;
  Alcotest.(check bool) "master replica silent" true
    (Pbftcore.Replica.adversary (Rbft.Node.replica (Rbft.Cluster.node cluster 3) ~instance:0))
      .Pbftcore.Replica.silent;
  (* Clients' authenticators broken for node 0 only. *)
  Alcotest.(check (list int)) "client macs" [ 0 ]
    (Rbft.Client.behaviour (Rbft.Cluster.client cluster 0)).Rbft.Client.mac_invalid_for

let test_worst_attack_2_configures () =
  let p = Bftmetrics.Probe.create () in
  let params = Rbft.Params.default ~f:1 in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:2 params in
  Rbft.Attacks.worst_attack_2 cluster;
  let faults = Rbft.Node.faults (Rbft.Cluster.node cluster 0) in
  Alcotest.(check (list int)) "floods correct nodes" [ 1; 2; 3 ]
    (List.sort compare faults.Rbft.Node.flood_targets);
  Alcotest.(check bool) "backup replica silent" true
    (Pbftcore.Replica.adversary (Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:1))
      .Pbftcore.Replica.silent;
  Alcotest.(check bool) "master replica NOT silent (it is the attacker's tool)" false
    (Pbftcore.Replica.adversary (Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0))
      .Pbftcore.Replica.silent

let test_worst_attack_2_contained_end_to_end () =
  let p = Bftmetrics.Probe.create () in
  (* The containment claim of Figure 10 at small scale: under the full
     worst-attack-2, throughput within the Delta envelope and no
     instance change. *)
  let params = Rbft.Params.default ~f:1 in
  let run attack =
    let cluster = Rbft.Cluster.create ~probe:p ~clients:10 params in
    Array.iter (fun c -> Rbft.Client.set_rate c 3300.0) (Rbft.Cluster.clients cluster);
    if attack then Rbft.Attacks.worst_attack_2 cluster;
    Rbft.Cluster.run_for cluster (Time.sec 2);
    let counter = Rbft.Node.executed_counter (Rbft.Cluster.node cluster 1) in
    ( Bftmetrics.Throughput.rate_between counter (Time.ms 500) (Time.sec 2),
      Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1) )
  in
  let ff, _ = run false in
  let att, changes = run true in
  Alcotest.(check int) "no instance change" 0 changes;
  let rel = att /. ff in
  Alcotest.(check bool)
    (Printf.sprintf "loss within the envelope (relative %.3f)" rel)
    true
    (rel > 0.90 && rel < 1.02)

let test_unfair_primary_configures () =
  let p = Bftmetrics.Probe.create () in
  let params = Rbft.Params.default ~f:1 in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:2 params in
  Rbft.Attacks.unfair_primary cluster ~node:0 ~target_client:1 ~after_requests:0
    ~hold:(Time.ms 2);
  let adv =
    Pbftcore.Replica.adversary (Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0)
  in
  Alcotest.(check int) "target held" (Time.ms 2)
    (adv.Pbftcore.Replica.client_hold { Pbftcore.Types.client = 1; rid = 5 });
  Alcotest.(check int) "others untouched" Time.zero
    (adv.Pbftcore.Replica.client_hold { Pbftcore.Types.client = 0; rid = 5 })

(* ------------------------------------------------------------------ *)
(* Load shape end-to-end through a cluster                            *)
(* ------------------------------------------------------------------ *)

let test_dynamic_shape_drives_cluster () =
  let p = Bftmetrics.Probe.create () in
  let params = Rbft.Params.default ~f:1 in
  let shape = Bftworkload.Loadshape.paper_dynamic ~step:(Time.ms 100) ~rate:200.0 () in
  let cluster =
    Rbft.Cluster.create ~probe:p ~clients:(Bftworkload.Loadshape.max_clients shape) params
  in
  Bftworkload.Loadshape.apply (Rbft.Cluster.engine cluster) shape
    ~set_rate:(fun c r -> Rbft.Client.set_rate (Rbft.Cluster.client cluster c) r);
  let total = Bftworkload.Loadshape.total_duration shape in
  Rbft.Cluster.run_for cluster (Time.add total (Time.ms 500));
  let executed = Rbft.Cluster.total_executed cluster in
  let offered = Bftworkload.Loadshape.offered_total shape in
  Alcotest.(check bool)
    (Printf.sprintf "executed %d of ~%.0f offered" executed offered)
    true
    (float_of_int executed > 0.85 *. offered);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let suites =
  [
    ( "harness.calibrate",
      [
        Alcotest.test_case "anchors and interpolation" `Quick test_calibrate_anchors;
        Alcotest.test_case "paper orderings" `Quick test_calibrate_orderings;
        Alcotest.test_case "f=2 scaling" `Quick test_calibrate_f2_scales_down;
        Alcotest.test_case "saturating rates" `Quick test_saturating_vs_peak;
      ] );
    ( "harness.report",
      [
        Alcotest.test_case "formatters" `Quick test_report_formatters;
        Alcotest.test_case "print smoke" `Quick test_report_print_smoke;
      ] );
    ( "rbft.attack-library",
      [
        Alcotest.test_case "worst-attack-1 wiring" `Quick test_worst_attack_1_configures;
        Alcotest.test_case "worst-attack-2 wiring" `Quick test_worst_attack_2_configures;
        Alcotest.test_case "worst-attack-2 contained" `Quick
          test_worst_attack_2_contained_end_to_end;
        Alcotest.test_case "unfair primary wiring" `Quick test_unfair_primary_configures;
      ] );
    ( "harness.endtoend",
      [
        Alcotest.test_case "dynamic shape drives a cluster" `Quick
          test_dynamic_shape_drives_cluster;
      ] );
  ]
