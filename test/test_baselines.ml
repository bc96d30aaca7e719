(* Tests for the three baseline protocols (Prime, Aardvark, Spinning)
   and the workload generator. *)

open Dessim

(* ------------------------------------------------------------------ *)
(* Aardvark policy                                                    *)
(* ------------------------------------------------------------------ *)

let policy_cfg = { Aardvark.Policy.grace = Time.sec 1; view_warmup = Time.ms 200 }

let test_policy_bootstrap_and_ratchet () =
  let p = Aardvark.Policy.create ~n:4 policy_cfg in
  Aardvark.Policy.on_view_start p ~now:Time.zero;
  (* Healthy primary at 1000 req/s for a while. *)
  let now = ref Time.zero in
  let tick rate =
    now := Time.add !now (Time.ms 100);
    Aardvark.Policy.note_ordered p ~count:(rate / 10);
    Aardvark.Policy.tick p ~now:!now ~pending:5
  in
  for _ = 1 to 10 do
    Alcotest.(check bool) "healthy" true (tick 1000 = Aardvark.Policy.Ok)
  done;
  let required_after_grace = Aardvark.Policy.required_rate p in
  Alcotest.(check bool) "bootstrap anchored near 900" true
    (required_after_grace > 800.0 && required_after_grace < 1000.0);
  (* After the grace period the requirement ratchets up and eventually
     exceeds what the primary delivers. *)
  let demanded = ref false in
  for _ = 1 to 200 do
    if tick 1000 = Aardvark.Policy.Demand_view_change then demanded := true
  done;
  Alcotest.(check bool) "ratchet eventually demands a view change" true !demanded

let test_policy_heartbeat () =
  let p = Aardvark.Policy.create ~n:4 policy_cfg in
  Aardvark.Policy.on_view_start p ~now:Time.zero;
  (* Dead primary with pending requests: the heartbeat fires after the
     warmup and three consecutive silent windows. *)
  let v1 = Aardvark.Policy.tick p ~now:(Time.ms 100) ~pending:3 in
  Alcotest.(check bool) "warming up" true (v1 = Aardvark.Policy.Ok);
  let v2 = Aardvark.Policy.tick p ~now:(Time.ms 300) ~pending:3 in
  let v3 = Aardvark.Policy.tick p ~now:(Time.ms 400) ~pending:3 in
  Alcotest.(check bool) "needs several silent windows" true
    (v2 = Aardvark.Policy.Ok || v3 = Aardvark.Policy.Demand_view_change);
  Alcotest.(check bool) "heartbeat expired" true
    (v3 = Aardvark.Policy.Demand_view_change);
  (* Progress clears the counter. *)
  Aardvark.Policy.on_view_start p ~now:(Time.ms 500);
  Aardvark.Policy.note_ordered p ~count:50;
  let v4 = Aardvark.Policy.tick p ~now:(Time.ms 900) ~pending:3 in
  Alcotest.(check bool) "progress resets heartbeat" true (v4 = Aardvark.Policy.Ok)

let test_policy_history_sets_requirement () =
  let p = Aardvark.Policy.create ~n:4 policy_cfg in
  Aardvark.Policy.on_view_start p ~now:Time.zero;
  Aardvark.Policy.note_ordered p ~count:2000;
  (* View ran 1 s at 2000 req/s; the next view must sustain 90 %. *)
  Aardvark.Policy.on_view_start p ~now:(Time.sec 1);
  Alcotest.(check (float 1.0)) "required = 0.9 * best" 1800.0
    (Aardvark.Policy.required_rate p)

(* ------------------------------------------------------------------ *)
(* Aardvark end-to-end                                                *)
(* ------------------------------------------------------------------ *)

let quick_aardvark_cfg =
  let f = 1 in
  {
    (Aardvark.Node.default_config ~f) with
    Aardvark.Node.policy = policy_cfg;
    post_vc_quiet = Time.ms 100;
  }

let test_aardvark_orders_and_agrees () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Aardvark.Cluster.create ~probe:p ~clients:3 quick_aardvark_cfg in
  Array.iter (fun c -> Aardvark.Client.set_rate c 500.0) (Aardvark.Cluster.clients cluster);
  Aardvark.Cluster.run_for cluster (Time.sec 1);
  Array.iter (fun c -> Aardvark.Client.set_rate c 0.0) (Aardvark.Cluster.clients cluster);
  Aardvark.Cluster.run_for cluster (Time.sec 1);
  Alcotest.(check bool) "progress" true (Aardvark.Cluster.total_executed cluster > 1000);
  Alcotest.(check bool) "agreement" true (Aardvark.Cluster.agreement_ok cluster ~faulty:[]);
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d completed" (Aardvark.Client.id c))
        (Aardvark.Client.sent c) (Aardvark.Client.completed c))
    (Aardvark.Cluster.clients cluster)

let test_aardvark_regular_view_changes () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Aardvark.Cluster.create ~probe:p ~clients:3 quick_aardvark_cfg in
  Array.iter (fun c -> Aardvark.Client.set_rate c 800.0) (Aardvark.Cluster.clients cluster);
  Aardvark.Cluster.run_for cluster (Time.sec 6);
  (* Grace 1 s + ~1.1 s of ratchet per view: several views in 6 s. *)
  let vcs = Aardvark.Node.view_changes (Aardvark.Cluster.node cluster 0) in
  Alcotest.(check bool) (Printf.sprintf "regular view changes (%d)" vcs) true (vcs >= 2);
  Alcotest.(check bool) "agreement" true (Aardvark.Cluster.agreement_ok cluster ~faulty:[])

let test_aardvark_tracking_attack_degrades () =
  let p = Bftmetrics.Probe.create () in
  let run ~attack =
    let cluster = Aardvark.Cluster.create ~probe:p ~seed:7L ~clients:4 quick_aardvark_cfg in
    Array.iter (fun c -> Aardvark.Client.set_rate c 1500.0) (Aardvark.Cluster.clients cluster);
    if attack then begin
      let faults = Aardvark.Node.faults (Aardvark.Cluster.node cluster 0) in
      faults.Aardvark.Node.track_required <- true;
      (* A tight margin makes the throttling visible at this small
         scale; the default (1.10) absorbs the smoothing lag against
         the ratchet in the full experiments. *)
      faults.Aardvark.Node.attack_margin <- 1.02
    end;
    Aardvark.Cluster.run_for cluster (Time.sec 3);
    (* Measure during the malicious primary's reign (view 0): below
       saturation an open-loop system catches the backlog up once the
       attacker is evicted, hiding the damage from a full-run average. *)
    Aardvark.Cluster.throughput_between cluster (Time.ms 300) (Time.ms 1100)
  in
  let ff = run ~attack:false and under_attack = run ~attack:true in
  Alcotest.(check bool)
    (Printf.sprintf "attack slower (%.0f vs %.0f)" under_attack ff)
    true
    (under_attack < 0.97 *. ff);
  Alcotest.(check bool) "but not catastrophic under static load" true
    (under_attack > 0.5 *. ff)

(* ------------------------------------------------------------------ *)
(* Spinning                                                           *)
(* ------------------------------------------------------------------ *)

let test_spinning_orders_and_agrees () =
  let p = Bftmetrics.Probe.create () in
  let cfg = Spinning.Node.default_config ~f:1 in
  let cluster = Spinning.Cluster.create ~probe:p ~clients:3 cfg in
  Array.iter (fun c -> Spinning.Client.set_rate c 500.0) (Spinning.Cluster.clients cluster);
  Spinning.Cluster.run_for cluster (Time.sec 1);
  Array.iter (fun c -> Spinning.Client.set_rate c 0.0) (Spinning.Cluster.clients cluster);
  Spinning.Cluster.run_for cluster (Time.sec 1);
  Alcotest.(check bool) "progress" true (Spinning.Cluster.total_executed cluster > 1000);
  Alcotest.(check bool) "agreement" true (Spinning.Cluster.agreement_ok cluster ~faulty:[]);
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d completed" (Spinning.Client.id c))
        (Spinning.Client.sent c) (Spinning.Client.completed c))
    (Spinning.Cluster.clients cluster)

let test_spinning_rotation () =
  let p = Bftmetrics.Probe.create () in
  (* With pipelined rotation every replica proposes batches; check
     that many sequence slots were delivered (rotation advanced far
     beyond what a single fixed primary's batch count would need). *)
  let cfg = Spinning.Node.default_config ~f:1 in
  let cluster = Spinning.Cluster.create ~probe:p ~clients:3 cfg in
  Array.iter (fun c -> Spinning.Client.set_rate c 1000.0) (Spinning.Cluster.clients cluster);
  Spinning.Cluster.run_for cluster (Time.sec 1);
  let r = Spinning.Node.replica (Spinning.Cluster.node cluster 0) in
  Alcotest.(check bool) "many slots delivered" true (Spinning.Replica.delivered_seqs r > 50)

let test_spinning_sub_timeout_attack () =
  let p = Bftmetrics.Probe.create () in
  (* The Figure 3 attack: delaying just under Stimeout collapses
     throughput without triggering the blacklist. *)
  let cfg = Spinning.Node.default_config ~f:1 in
  let run ~attack =
    let cluster = Spinning.Cluster.create ~probe:p ~clients:4 cfg in
    Array.iter (fun c -> Spinning.Client.set_rate c 1500.0) (Spinning.Cluster.clients cluster);
    if attack then
      (Spinning.Node.faults (Spinning.Cluster.node cluster 3)).Spinning.Node.delay_fraction <-
        0.95;
    Spinning.Cluster.run_for cluster (Time.sec 2);
    ( Spinning.Cluster.throughput_between cluster (Time.ms 300) (Time.sec 2),
      Spinning.Replica.blacklist (Spinning.Node.replica (Spinning.Cluster.node cluster 0)) )
  in
  let ff, _ = run ~attack:false in
  let attacked, blacklist = run ~attack:true in
  Alcotest.(check bool)
    (Printf.sprintf "collapse (%.0f vs %.0f)" attacked ff)
    true
    (attacked < 0.4 *. ff);
  Alcotest.(check (list int)) "no blacklisting below the timeout" [] blacklist

let test_spinning_blacklists_over_timeout () =
  let p = Bftmetrics.Probe.create () in
  (* Delaying beyond Stimeout gets the faulty proposer blacklisted and
     throughput recovers. *)
  let cfg = Spinning.Node.default_config ~f:1 in
  let cluster = Spinning.Cluster.create ~probe:p ~clients:4 cfg in
  Array.iter (fun c -> Spinning.Client.set_rate c 1000.0) (Spinning.Cluster.clients cluster);
  (Spinning.Node.faults (Spinning.Cluster.node cluster 3)).Spinning.Node.delay_fraction <- 3.0;
  Spinning.Cluster.run_for cluster (Time.sec 2);
  let blacklist = Spinning.Replica.blacklist (Spinning.Node.replica (Spinning.Cluster.node cluster 0)) in
  Alcotest.(check (list int)) "faulty proposer blacklisted" [ 3 ] blacklist;
  Alcotest.(check bool) "agreement among correct" true
    (Spinning.Cluster.agreement_ok cluster ~faulty:[ 3 ])

(* One authenticated source is one vote, in every Spinning quorum.
   Replica 2 gets seq 1's PRE-PREPARE from its proposer, node 1, then
   three PREPAREs and three COMMITs from node 1 as well: node 1 prepares
   the batch with replica 2 but is one of the 2f+1 commits it needs.
   Three accusations from node 3 are one accuser. A second source then
   completes each quorum, so the votes above were well-formed. *)
let test_spinning_one_source_one_vote () =
  let module R = Spinning.Replica in
  let engine = Engine.create () in
  let cfg = { R.n = 4; f = 1; replica_id = 2 } in
  let r =
    R.create ~probe:(Bftmetrics.Probe.create ()) engine cfg { R.broadcast = (fun _ -> ()); deliver = (fun _ _ -> ()) }
  in
  let d = Pbftcore.Types.desc_of_op ~client:0 ~rid:1 "op" in
  let digest = Pbftcore.Messages.batch_digest [ d ] in
  R.submit r d;
  R.receive r ~from:1 (R.Pre_prepare { seq = 1; descs = [ d ]; attempt = 0 });
  for _ = 1 to 3 do
    R.receive r ~from:1 (R.Prepare { seq = 1; digest; attempt = 0 });
    R.receive r ~from:1 (R.Commit { seq = 1; digest; attempt = 0 })
  done;
  Alcotest.(check int) "node 1 is one commit" 0 (R.ordered_count r);
  R.receive r ~from:3 (R.Commit { seq = 1; digest; attempt = 0 });
  Alcotest.(check int) "a second source completes the quorum" 1 (R.ordered_count r);
  for _ = 1 to 3 do
    R.receive r ~from:3 (R.Accuse { seq = 2 })
  done;
  Alcotest.(check (list int)) "node 3 is one accuser" [] (R.blacklist r);
  R.receive r ~from:0 (R.Accuse { seq = 2 });
  Alcotest.(check bool) "two sources make f+1 and replica 2 joins" true
    (R.blacklist r <> [])

(* ------------------------------------------------------------------ *)
(* Prime                                                              *)
(* ------------------------------------------------------------------ *)

let prime_cfg = { (Prime.Node.default_config ~f:1) with Prime.Node.exec_cost = Time.us 10 }

let test_prime_orders_and_agrees () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Prime.Cluster.create ~probe:p ~clients:4 prime_cfg in
  Array.iter (fun c -> Prime.Client.set_rate c 300.0) (Prime.Cluster.clients cluster);
  Prime.Cluster.run_for cluster (Time.sec 1);
  Array.iter (fun c -> Prime.Client.set_rate c 0.0) (Prime.Cluster.clients cluster);
  Prime.Cluster.run_for cluster (Time.sec 1);
  Alcotest.(check bool) "progress" true (Prime.Cluster.total_executed cluster > 500);
  Alcotest.(check bool) "agreement" true (Prime.Cluster.agreement_ok cluster ~faulty:[]);
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d completed" (Prime.Client.id c))
        (Prime.Client.sent c) (Prime.Client.completed c))
    (Prime.Cluster.clients cluster)

let test_prime_latency_dominated_by_period () =
  let p = Bftmetrics.Probe.create () in
  (* Prime's ordering is periodic: even an idle system shows latency
     around the aggregation period, an order of magnitude above the
     3-phase protocols (Figure 7 discussion). *)
  let cluster = Prime.Cluster.create ~probe:p ~clients:1 prime_cfg in
  let c = Prime.Cluster.client cluster 0 in
  Prime.Client.set_rate c 50.0;
  Prime.Cluster.run_for cluster (Time.sec 2);
  let mean = Bftmetrics.Hist.mean (Prime.Client.latencies c) in
  Alcotest.(check bool)
    (Printf.sprintf "latency %.1f ms >= 3 ms" (mean *. 1e3))
    true (mean > 3e-3)

let test_prime_monitor_allowed_gap () =
  let m = Prime.Monitor.create () in
  Prime.Monitor.note_rtt m (Time.ms 1);
  Prime.Monitor.note_batch_exec m (Time.ms 4);
  let gap = Prime.Monitor.allowed_gap m in
  (* t_pp + k_lat * (rtt + exec) with EMA warmup: first samples count
     fully. *)
  Alcotest.(check bool)
    (Printf.sprintf "gap %s > t_pp" (Time.to_string gap))
    true
    (gap > Time.ms 10);
  Alcotest.(check bool) "suspicious after silence" true
    (Prime.Monitor.note_pre_prepare m ~now:Time.zero;
     Prime.Monitor.suspicious m ~now:(Time.sec 1))

let test_prime_attack_degrades () =
  let p = Bftmetrics.Probe.create () in
  let cfg = Prime.Node.default_config ~f:1 in
  let run ~attack =
    let cluster = Prime.Cluster.create ~probe:p ~clients:6 cfg in
    Array.iteri
      (fun i c ->
        Prime.Client.set_rate c 600.0;
        if attack && i = 0 then (Prime.Client.behaviour c).Prime.Client.heavy <- true)
      (Prime.Cluster.clients cluster);
    if attack then
      (Prime.Node.faults (Prime.Cluster.node cluster 0)).Prime.Node.delay_to_limit <- true;
    Prime.Cluster.run_for cluster (Time.sec 3);
    ( Prime.Cluster.throughput_between cluster (Time.ms 500) (Time.sec 3),
      Prime.Node.view (Prime.Cluster.node cluster 1) )
  in
  let ff, _ = run ~attack:false in
  let attacked, view = run ~attack:true in
  Alcotest.(check bool)
    (Printf.sprintf "degraded (%.0f vs %.0f)" attacked ff)
    true
    (attacked < 0.7 *. ff);
  Alcotest.(check int) "the smart primary is never suspected" 0 view

let test_prime_dead_primary_suspected () =
  let p = Bftmetrics.Probe.create () in
  (* A primary that stops sending PRE-PREPAREs entirely exceeds the
     allowed gap and is replaced. *)
  let cluster = Prime.Cluster.create ~probe:p ~clients:2 prime_cfg in
  Array.iter (fun c -> Prime.Client.set_rate c 200.0) (Prime.Cluster.clients cluster);
  let faulty = Prime.Cluster.node cluster 0 in
  (Prime.Node.faults faulty).Prime.Node.delay_to_limit <- true;
  (Prime.Node.faults faulty).Prime.Node.limit_fraction <- 50.0;
  Prime.Cluster.run_for cluster (Time.sec 4);
  Alcotest.(check bool) "view advanced" true (Prime.Node.view (Prime.Cluster.node cluster 1) >= 1)

(* One authenticated source is one vote, in every Prime quorum. Node 1
   (not started, so it runs no timers of its own) gets node 0's
   PO-REQUEST and a PRE-PREPARE covering it, then three PREPAREs and
   three COMMITs from node 0: node 0 prepares the vector with node 1 but
   is one of the 2f+1 commits it needs. Three SUSPECTs from node 3 are
   one suspect. A second source then completes each quorum, so the
   votes above were well-formed. *)
let test_prime_one_source_one_vote () =
  let p = Bftmetrics.Probe.create () in
  let engine = Engine.create ~seed:1L () in
  let net = Bftnet.Network.create ~probe:p engine (Bftnet.Network.default_config ~nodes:4) in
  let node =
    Prime.Node.create engine net prime_cfg ~id:1 ~service:(Bftapp.Null_service.create ())
  in
  let send src m =
    Bftnet.Network.send net ~src:(Bftcrypto.Principal.node src)
      ~dst:(Bftcrypto.Principal.node 1) ~size:64 m;
    Engine.run engine
  in
  let d = Pbftcore.Types.desc_of_op ~client:0 ~rid:1 "op" in
  let vector = [| 1; 0; 0; 0 |] in
  (* Prime's vector digest: view, seq and the vector. *)
  let digest = Bftcrypto.Sha256.digest_string "0:1,1,0,0,0" in
  send 0 (Prime.Node.Po_request { desc = d; po_seq = 1 });
  send 0 (Prime.Node.Pre_prepare { view = 0; seq = 1; vector });
  for _ = 1 to 3 do
    send 0 (Prime.Node.Prepare { view = 0; seq = 1; digest });
    send 0 (Prime.Node.Commit { view = 0; seq = 1; digest })
  done;
  Alcotest.(check int) "node 0 is one commit" 0 (Prime.Node.executed_count node);
  send 2 (Prime.Node.Commit { view = 0; seq = 1; digest });
  Alcotest.(check int) "a second source completes the quorum" 1
    (Prime.Node.executed_count node);
  for _ = 1 to 3 do
    send 3 (Prime.Node.Suspect { view = 0 })
  done;
  Alcotest.(check int) "node 3 is one suspect" 1 (Prime.Node.suspects_seen node);
  Alcotest.(check int) "no view change" 0 (Prime.Node.view node);
  send 2 (Prime.Node.Suspect { view = 0 });
  send 0 (Prime.Node.Suspect { view = 0 });
  Alcotest.(check int) "three sources change the view" 1 (Prime.Node.view node)

(* ------------------------------------------------------------------ *)
(* Load shapes                                                        *)
(* ------------------------------------------------------------------ *)

let test_loadshape_static () =
  let shape = Bftworkload.Loadshape.static ~duration:(Time.sec 2) ~clients:5 ~rate:100.0 in
  Alcotest.(check int) "duration" (Time.sec 2) (Bftworkload.Loadshape.total_duration shape);
  Alcotest.(check int) "clients" 5 (Bftworkload.Loadshape.max_clients shape);
  Alcotest.(check (float 1e-6)) "offered" 1000.0 (Bftworkload.Loadshape.offered_total shape)

let test_loadshape_dynamic () =
  let shape = Bftworkload.Loadshape.paper_dynamic ~rate:100.0 () in
  Alcotest.(check int) "spike" 50 (Bftworkload.Loadshape.max_clients shape);
  Alcotest.(check int) "14 phases" 14 (List.length shape)

let test_loadshape_apply () =
  let engine = Engine.create () in
  let shape =
    [
      { Bftworkload.Loadshape.duration = Time.ms 100; active_clients = 2; per_client_rate = 10.0 };
      { Bftworkload.Loadshape.duration = Time.ms 100; active_clients = 1; per_client_rate = 5.0 };
    ]
  in
  let log = ref [] in
  Bftworkload.Loadshape.apply engine shape ~set_rate:(fun c r ->
      log := (Engine.now engine, c, r) :: !log);
  Engine.run engine;
  let log = List.rev !log in
  Alcotest.(check int) "3 boundaries x 2 clients" 6 (List.length log);
  Alcotest.(check bool) "phase 1" true
    (List.mem (Time.zero, 0, 10.0) log && List.mem (Time.zero, 1, 10.0) log);
  Alcotest.(check bool) "phase 2 deactivates client 1" true
    (List.mem (Time.ms 100, 1, 0.0) log);
  Alcotest.(check bool) "final stop" true (List.mem (Time.ms 200, 0, 0.0) log)

let prop_spinning_rotation_covers_all =
  QCheck.Test.make ~name:"spinning rotation visits every non-blacklisted replica"
    QCheck.(int_range 0 1000)
    (fun start ->
      let engine = Engine.create () in
      let cfg = { Spinning.Replica.n = 4; f = 1; replica_id = 0 } in
      let r =
        Spinning.Replica.create ~probe:(Bftmetrics.Probe.create ()) engine cfg
          { Spinning.Replica.broadcast = (fun _ -> ()); deliver = (fun _ _ -> ()) }
      in
      let seen =
        List.sort_uniq compare
          (List.init 8 (fun k -> Spinning.Replica.proposer_of r ~seq:(start + k)))
      in
      seen = [ 0; 1; 2; 3 ])

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "aardvark.policy",
      [
        Alcotest.test_case "bootstrap and ratchet" `Quick test_policy_bootstrap_and_ratchet;
        Alcotest.test_case "heartbeat" `Quick test_policy_heartbeat;
        Alcotest.test_case "history sets requirement" `Quick
          test_policy_history_sets_requirement;
      ] );
    ( "aardvark.cluster",
      [
        Alcotest.test_case "orders and agrees" `Quick test_aardvark_orders_and_agrees;
        Alcotest.test_case "regular view changes" `Quick test_aardvark_regular_view_changes;
        Alcotest.test_case "requirement-tracking attack" `Quick
          test_aardvark_tracking_attack_degrades;
      ] );
    ( "spinning",
      [
        Alcotest.test_case "orders and agrees" `Quick test_spinning_orders_and_agrees;
        Alcotest.test_case "rotation" `Quick test_spinning_rotation;
        Alcotest.test_case "sub-timeout attack (Fig 3)" `Quick
          test_spinning_sub_timeout_attack;
        Alcotest.test_case "blacklists over timeout" `Quick
          test_spinning_blacklists_over_timeout;
        Alcotest.test_case "one source is one vote" `Quick
          test_spinning_one_source_one_vote;
      ]
      @ qsuite [ prop_spinning_rotation_covers_all ] );
    ( "prime",
      [
        Alcotest.test_case "orders and agrees" `Quick test_prime_orders_and_agrees;
        Alcotest.test_case "periodic-ordering latency" `Quick
          test_prime_latency_dominated_by_period;
        Alcotest.test_case "monitor allowed gap" `Quick test_prime_monitor_allowed_gap;
        Alcotest.test_case "RTT-inflation attack (Fig 1)" `Quick test_prime_attack_degrades;
        Alcotest.test_case "dead primary suspected" `Quick test_prime_dead_primary_suspected;
        Alcotest.test_case "one source is one vote" `Quick test_prime_one_source_one_vote;
      ] );
    ( "workload",
      [
        Alcotest.test_case "static shape" `Quick test_loadshape_static;
        Alcotest.test_case "paper dynamic shape" `Quick test_loadshape_dynamic;
        Alcotest.test_case "apply schedules rates" `Quick test_loadshape_apply;
      ] );
  ]
