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
        (Flavour.name proto ^ " f=2 slower")
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
        (Flavour.name proto ^ " below")
        true
        (Calibrate.saturating_rate proto ~size:8 < Calibrate.peak_rate proto ~size:8))
    [ Calibrate.Aardvark; Calibrate.Spinning; Calibrate.Prime ]

(* ------------------------------------------------------------------ *)
(* Flavours                                                           *)
(* ------------------------------------------------------------------ *)

let test_flavour_slug_roundtrip () =
  List.iter
    (fun fl ->
      Alcotest.(check bool)
        (Flavour.slug fl ^ " round-trips")
        true
        (Flavour.of_slug (Flavour.slug fl) = Some fl))
    Flavour.all;
  Alcotest.(check int) "six distinct slugs" 6
    (List.length (List.sort_uniq compare (List.map Flavour.slug Flavour.all)));
  Alcotest.(check bool) "unknown slug" true (Flavour.of_slug "pbft" = None)

(* Every driver builds its RBFT clusters through [Flavour.rbft_cluster]:
   each flavour must come out with its own transport and ordering. *)
let test_flavour_rbft_clusters () =
  let check fl transport ordering =
    let c = Flavour.rbft_cluster ~probe:(Bftmetrics.Probe.create ()) ~f:1 fl in
    Alcotest.(check bool)
      (Flavour.name fl ^ " transport")
      true
      ((Bftnet.Network.config (Rbft.Cluster.network c)).Bftnet.Network.transport
      = transport);
    Array.iter
      (fun node ->
        Alcotest.(check string)
          (Printf.sprintf "%s node %d ordering" (Flavour.name fl) (Rbft.Node.id node))
          (Rbft.Params.ordering_name ordering)
          (Rbft.Params.ordering_name (Rbft.Node.ordering node)))
      (Rbft.Cluster.nodes c)
  in
  check Flavour.Rbft Bftnet.Network.Tcp Rbft.Params.Redundant;
  check Flavour.Rbft_udp Bftnet.Network.Udp Rbft.Params.Redundant;
  check Flavour.Rbft_concurrent Bftnet.Network.Tcp Rbft.Params.Concurrent;
  List.iter
    (fun fl ->
      Alcotest.check_raises (Flavour.name fl ^ " is no RBFT flavour")
        (Invalid_argument ("Flavour.rbft_cluster: " ^ Flavour.name fl))
        (fun () -> ignore (Flavour.rbft_cluster ~probe:(Bftmetrics.Probe.create ()) ~f:1 fl)))
    Flavour.[ Aardvark; Spinning; Prime ]

(* ------------------------------------------------------------------ *)
(* Experiment groups                                                  *)
(* ------------------------------------------------------------------ *)

let all_ids () = List.concat_map (fun g -> g.Experiments.ids) Experiments.groups

let test_groups_ids_unique () =
  let ids = all_ids () in
  Alcotest.(check int) "no id in two groups" (List.length ids)
    (List.length (List.sort_uniq compare ids))

let test_groups_resolve () =
  List.iter
    (fun g ->
      List.iter
        (fun key ->
          let matching =
            List.filter
              (fun h ->
                String.equal h.Experiments.label key || List.mem key h.Experiments.ids)
              Experiments.groups
          in
          Alcotest.(check int) (key ^ " names one group") 1 (List.length matching);
          Alcotest.(check (option string))
            (key ^ " resolves to its group")
            (Some g.Experiments.label)
            (Option.map (fun h -> h.Experiments.label) (Experiments.find key)))
        (g.Experiments.label :: g.Experiments.ids))
    Experiments.groups;
  Alcotest.(check bool) "unknown id" true (Experiments.find "fig4" = None)

(* The tables bench/main.exe prints, in order: a renamed or dropped id
   silently drops a figure from every report. *)
let test_groups_cover_the_paper () =
  Alcotest.(check (list string))
    "table ids"
    [
      "fig1"; "fig2"; "fig3"; "table1"; "fig7a"; "fig7b"; "fig8"; "fig9"; "fig10";
      "fig11"; "fig12"; "ablation-ordering"; "ablation-viewchange"; "ablation-delta";
      "ablation-recovery"; "ablation-closedloop";
    ]
    (all_ids ())

(* Auditing observes a run without changing it: Figure 12 audited
   prints the tables it prints unaudited, and its one run is the one
   run the audit counts. *)
let test_fig12_audit_observes_one_run () =
  let fig12 = Option.get (Experiments.find "fig12") in
  let audit = Audit.create ~enabled:true () in
  let audited = fig12.Experiments.run ~audit ~quick:true in
  let plain = fig12.Experiments.run ~audit:(Audit.create ()) ~quick:true in
  Alcotest.(check bool) "identical tables" true (audited = plain);
  match Audit.summary audit with
  | Some s ->
    Alcotest.(check bool) ("one run audited: " ^ s) true
      (String.starts_with ~prefix:"1 run(s) audited, " s)
  | None -> Alcotest.fail "no audit summary"

(* Each report leg runs on a probe of its own: a second traced leg with
   metrics on sees neither the first leg's registry nor its spans. *)
let test_perfreport_legs_share_nothing () =
  let leg () =
    Perfreport.static_run ~audit:(Audit.create ()) ~with_metrics:true ~span_sample:8
      ~quick:true ~payload:8 ()
  in
  let r1, p1 = leg () in
  let r2, p2 = leg () in
  (* Allocated words and SHA-256 blocks depend on process-wide state
     (the GC and the hash memo), not on the run alone. *)
  let sim (r : Perfreport.run_result) =
    ( (r.throughput, r.p50_ms, r.p99_ms, r.order_p50_ms, r.order_p99_ms),
      (r.host.events_per_req, r.host.msgs_per_req, r.host.queue_peak) )
  in
  Alcotest.(check bool) "equal results" true (sim r1 = sim r2);
  Alcotest.(check bool) "ordering latency recorded" true (r1.order_p50_ms > 0.0);
  Alcotest.(check bool) "spans recorded" true (Bftmetrics.Probe.span_count p1 > 0);
  Alcotest.(check int) "equal span counts" (Bftmetrics.Probe.span_count p1)
    (Bftmetrics.Probe.span_count p2)

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
    ( "harness.flavour",
      [
        Alcotest.test_case "slug round trip" `Quick test_flavour_slug_roundtrip;
        Alcotest.test_case "rbft flavours build their transport and ordering" `Quick
          test_flavour_rbft_clusters;
      ] );
    ( "harness.experiments",
      [
        Alcotest.test_case "table ids unique across groups" `Quick test_groups_ids_unique;
        Alcotest.test_case "ids and labels resolve to one group" `Quick
          test_groups_resolve;
        Alcotest.test_case "ids are the paper's tables" `Quick test_groups_cover_the_paper;
        Alcotest.test_case "fig12 audited prints the unaudited tables" `Quick
          test_fig12_audit_observes_one_run;
        Alcotest.test_case "perfreport legs share no probe" `Quick
          test_perfreport_legs_share_nothing;
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
