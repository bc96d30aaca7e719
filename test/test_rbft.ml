(* Tests for the RBFT core: monitoring, the full node pipeline,
   instance changes and the paper's attack scenarios at small scale. *)

open Dessim

(* ------------------------------------------------------------------ *)
(* Monitoring unit tests                                              *)
(* ------------------------------------------------------------------ *)

let mk_params ?(delta = 0.9) ?(lambda = Time.zero) ?(omega = Time.zero) ?(f = 1) () =
  { (Rbft.Params.default ~f) with Rbft.Params.delta; lambda; omega }

let test_monitoring_rates () =
  let m = Rbft.Monitoring.create (mk_params ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:1000;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:1000;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check (float 1e-6)) "master rate" 1000.0 v.Rbft.Monitoring.master_rate;
  Alcotest.(check (float 1e-6)) "backup rate" 1000.0 v.Rbft.Monitoring.backup_rate;
  Alcotest.(check bool) "not suspicious" false v.Rbft.Monitoring.suspicious

let test_monitoring_detects_slow_master () =
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:500;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:1000;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "suspicious" true v.Rbft.Monitoring.suspicious

let test_monitoring_tolerates_within_delta () =
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:950;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:1000;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "within delta" false v.Rbft.Monitoring.suspicious

let test_monitoring_idle_not_suspicious () =
  (* With (almost) no traffic the ratio test must not fire. *)
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:3;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "idle" false v.Rbft.Monitoring.suspicious

let test_monitoring_window_reset () =
  let m = Rbft.Monitoring.create (mk_params ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:100;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:100;
  ignore (Rbft.Monitoring.tick m ~now:(Time.sec 1));
  (* New window: counters were reset (the verdict's [master_rate] is a
     moving average, so check the raw window rates). *)
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 2) in
  Alcotest.(check (float 1e-6)) "reset" 0.0 v.Rbft.Monitoring.rates.(0);
  Alcotest.(check int) "history kept" 2 (List.length (Rbft.Monitoring.history m))

let test_monitoring_lambda () =
  let m = Rbft.Monitoring.create (mk_params ~lambda:(Time.of_us_f 1500.0) ()) in
  Alcotest.(check bool) "below lambda" false
    (Rbft.Monitoring.lambda_violation m ~latency:(Time.ms 1));
  Alcotest.(check bool) "above lambda" true
    (Rbft.Monitoring.lambda_violation m ~latency:(Time.ms 2));
  let off = Rbft.Monitoring.create (mk_params ()) in
  Alcotest.(check bool) "disabled" false
    (Rbft.Monitoring.lambda_violation off ~latency:(Time.sec 10))

let test_monitoring_zero_window () =
  (* A tick with no time elapsed since the window opened must not
     divide by zero: rates collapse to 0 and the verdict stays calm. *)
  let m = Rbft.Monitoring.create (mk_params ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:500;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:500;
  let v = Rbft.Monitoring.tick m ~now:Time.zero in
  Alcotest.(check (float 1e-6)) "zero-window master" 0.0 v.Rbft.Monitoring.master_rate;
  Alcotest.(check (float 1e-6)) "zero-window backup" 0.0 v.Rbft.Monitoring.backup_rate;
  Alcotest.(check bool) "zero-window not suspicious" false v.Rbft.Monitoring.suspicious;
  Alcotest.(check bool) "zero-window ratio is NaN" true
    (Float.is_nan v.Rbft.Monitoring.ratio)

let test_monitoring_three_window_average () =
  (* The Δ verdict averages over the last three windows only: three
     slow master windows after a fast start must still fire. *)
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  (* Window 1: fast master. *)
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:1000;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:1000;
  ignore (Rbft.Monitoring.tick m ~now:(Time.sec 1));
  (* Windows 2-4: master collapses while the backup stays fast. After
     window 4 the fast first window has left the 3-window average. *)
  let last = ref None in
  for w = 2 to 4 do
    Rbft.Monitoring.note_ordered m ~instance:0 ~count:100;
    Rbft.Monitoring.note_ordered m ~instance:1 ~count:1000;
    last := Some (Rbft.Monitoring.tick m ~now:(Time.sec w))
  done;
  match !last with
  | None -> Alcotest.fail "no verdict"
  | Some v ->
    Alcotest.(check (float 1e-6)) "averaged master over 3 windows" 100.0
      v.Rbft.Monitoring.master_rate;
    Alcotest.(check bool) "slow master caught" true v.Rbft.Monitoring.suspicious

let test_monitoring_idle_backup_ratio_nan () =
  (* Backups below [min_meaningful_rate] gate the Δ test; with zero
     backup traffic the ratio itself is NaN, not infinity. *)
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:1000;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "idle-backup ratio NaN" true
    (Float.is_nan v.Rbft.Monitoring.ratio);
  Alcotest.(check bool) "idle-backup not suspicious" false v.Rbft.Monitoring.suspicious;
  (* Just under the gate (50 req/s): still not applied even though the
     master is far below delta times the backup rate. *)
  let m2 = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m2 ~instance:1 ~count:49;
  let v2 = Rbft.Monitoring.tick m2 ~now:(Time.sec 1) in
  Alcotest.(check bool) "sub-threshold backups gated" false v2.Rbft.Monitoring.suspicious;
  Alcotest.(check bool) "sub-threshold ratio finite" true (v2.Rbft.Monitoring.ratio = 0.0);
  (* At the gate the test applies. *)
  let m3 = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m3 ~instance:1 ~count:50;
  let v3 = Rbft.Monitoring.tick m3 ~now:(Time.sec 1) in
  Alcotest.(check bool) "at-threshold backups fire" true v3.Rbft.Monitoring.suspicious

let test_monitoring_bounded_history () =
  (* The measurement log is a ring: ticking [history_cap + 6] times
     keeps only the last [history_cap] windows, oldest first, and
     [latest] still tracks the newest one. *)
  let cap = Rbft.Monitoring.history_cap in
  Alcotest.(check int) "cap" 4096 cap;
  let m = Rbft.Monitoring.create (mk_params ()) in
  let ticks = cap + 6 in
  for w = 1 to ticks do
    Rbft.Monitoring.note_ordered m ~instance:0 ~count:(w * 10);
    ignore (Rbft.Monitoring.tick m ~now:(Time.sec w))
  done;
  let hist = Rbft.Monitoring.history m in
  Alcotest.(check int) "history bounded" cap (List.length hist);
  let times = List.map (fun (t, _) -> Time.to_sec_f t) hist in
  Alcotest.(check (list (float 1e-6))) "oldest first, newest kept"
    (List.init cap (fun i -> float_of_int (i + 7)))
    times;
  match Rbft.Monitoring.latest m with
  | Some (t, rates) ->
    Alcotest.(check (float 1e-6)) "latest time" (float_of_int ticks) (Time.to_sec_f t);
    Alcotest.(check (float 1e-6)) "latest master rate" (float_of_int (ticks * 10))
      rates.(0)
  | None -> Alcotest.fail "no latest measurement"

let test_monitoring_omega () =
  let m = Rbft.Monitoring.create (mk_params ~omega:(Time.us 500) ()) in
  (* Client 7: 2 ms on master, 0.8 ms on backup. *)
  for _ = 1 to 20 do
    Rbft.Monitoring.note_latency m ~instance:0 ~client:7 (Time.ms 2);
    Rbft.Monitoring.note_latency m ~instance:1 ~client:7 (Time.of_us_f 800.0)
  done;
  Alcotest.(check bool) "gap above omega" true (Rbft.Monitoring.omega_violation m ~client:7);
  (* Client 8 is treated fairly. *)
  for _ = 1 to 20 do
    Rbft.Monitoring.note_latency m ~instance:0 ~client:8 (Time.ms 1);
    Rbft.Monitoring.note_latency m ~instance:1 ~client:8 (Time.ms 1)
  done;
  Alcotest.(check bool) "fair client fine" false (Rbft.Monitoring.omega_violation m ~client:8)

(* ------------------------------------------------------------------ *)
(* Cluster-level tests                                                *)
(* ------------------------------------------------------------------ *)

let saturate ?(rate = 800.0) ?(nclients = 3) ?(payload = 8) ?(params = mk_params ()) () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:nclients ~payload_size:payload params in
  Array.iter (fun c -> Rbft.Client.set_rate c rate) (Rbft.Cluster.clients cluster);
  cluster

let stop_clients cluster =
  Array.iter (fun c -> Rbft.Client.set_rate c 0.0) (Rbft.Cluster.clients cluster)

let test_fault_free_completion () =
  let cluster = saturate () in
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  let sent =
    Array.fold_left (fun acc c -> acc + Rbft.Client.sent c) 0 (Rbft.Cluster.clients cluster)
  in
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d all completed" (Rbft.Client.id c))
        (Rbft.Client.sent c) (Rbft.Client.completed c))
    (Rbft.Cluster.clients cluster);
  Alcotest.(check int) "all executed once" sent (Rbft.Cluster.total_executed cluster);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[]);
  Alcotest.(check int) "no instance change" 0
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 0))

let test_backup_orders_but_does_not_execute () =
  let cluster = saturate () in
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  let node = Rbft.Cluster.node cluster 0 in
  let master = Pbftcore.Replica.ordered_count (Rbft.Node.replica node ~instance:0) in
  let backup = Pbftcore.Replica.ordered_count (Rbft.Node.replica node ~instance:1) in
  Alcotest.(check bool) "backup ordered as much as master" true (backup >= master * 9 / 10);
  Alcotest.(check int) "executions = master orders" master (Rbft.Node.executed_count node)

let test_instance_change_on_slow_master_primary () =
  let params = mk_params ~delta:0.9 () in
  let cluster = saturate ~params () in
  (* The master primary (instance 0, view 0) runs on node 0. Make it
     hugely slow: ordering rate collapses while backups stay fast. *)
  let master_replica = Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0 in
  (Pbftcore.Replica.adversary master_replica).Pbftcore.Replica.pp_extra_delay <-
    (fun () -> Time.ms 50);
  Rbft.Cluster.run_for cluster (Time.sec 2);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Array.iter
    (fun node ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d performed an instance change" (Rbft.Node.id node))
        true
        (Rbft.Node.instance_changes node >= 1))
    (Rbft.Cluster.nodes cluster);
  (* After the change the master instance's primary is node 1 and the
     system keeps making progress. *)
  let r0 = Rbft.Node.replica (Rbft.Cluster.node cluster 1) ~instance:0 in
  Alcotest.(check bool) "primary rotated off node 0" true
    (Pbftcore.Replica.current_primary r0 <> 0);
  Alcotest.(check bool) "progress" true (Rbft.Cluster.total_executed cluster > 100);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let test_no_instance_change_when_master_within_delta () =
  let params = mk_params ~delta:0.9 () in
  let cluster = saturate ~params () in
  (* A very mild delay keeps the ratio above delta: no change. *)
  let master_replica = Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0 in
  (Pbftcore.Replica.adversary master_replica).Pbftcore.Replica.pp_extra_delay <-
    (fun () -> Time.us 30);
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Alcotest.(check int) "no instance change" 0
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1))

let test_worst_attack_1_no_instance_change () =
  (* Worst-attack-1: correct master primary; the faulty node (3) floods
     the master-primary node and its master-instance replica goes
     silent. RBFT must not trigger an instance change and degradation
     must stay small. *)
  let params = mk_params ~delta:0.9 () in
  let cluster = saturate ~params () in
  let faulty = Rbft.Cluster.node cluster 3 in
  let faults = Rbft.Node.faults faulty in
  faults.Rbft.Node.flood_targets <- [ 0 ];
  faults.Rbft.Node.flood_rate <- 2000.0;
  faults.Rbft.Node.no_propagate <- true;
  (Pbftcore.Replica.adversary (Rbft.Node.replica faulty ~instance:0)).Pbftcore.Replica.silent <-
    true;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Alcotest.(check int) "no instance change" 0
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 0));
  Alcotest.(check bool) "progress" true (Rbft.Cluster.total_executed cluster > 500);
  Alcotest.(check bool) "agreement among correct nodes" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[ 3 ])

let test_flood_closes_nic () =
  let params = mk_params () in
  let cluster = saturate ~nclients:1 ~rate:100.0 ~params () in
  let faulty = Rbft.Cluster.node cluster 3 in
  let faults = Rbft.Node.faults faulty in
  faults.Rbft.Node.flood_targets <- [ 0 ];
  faults.Rbft.Node.flood_rate <- 5000.0;
  Rbft.Cluster.run_for cluster (Time.ms 300);
  Alcotest.(check bool) "node 0 closed the flooder's NIC" true
    (Bftnet.Network.nic_closed (Rbft.Cluster.network cluster) ~node:0
       ~peer:(Bftcrypto.Principal.node 3))

(* Junk PROPAGATEs from node 3, past the flood threshold within one
   monitoring period. The payload names no sender, so node 3 cannot pin
   its junk on a correct peer: node 0 blames the authenticated source,
   and only it. *)
let test_forged_junk_spares_named_peer () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:1 (mk_params ()) in
  Rbft.Cluster.run_for cluster (Time.ms 1);
  let desc = Pbftcore.Types.desc_of_op ~client:(-1) ~rid:0 "junk" in
  let junk =
    Rbft.Messages.Propagate
      { req = { desc; sig_valid = false; mac_invalid_for = [] }; junk = true }
  in
  for _ = 1 to 2 * Rbft.Params.flood_threshold do
    Bftnet.Network.send
      (Rbft.Cluster.network cluster)
      ~src:(Bftcrypto.Principal.node 3) ~dst:(Bftcrypto.Principal.node 0)
      ~size:64 junk
  done;
  Rbft.Cluster.run_for cluster (Time.ms 20);
  List.iter
    (fun peer ->
      Alcotest.(check bool)
        (Printf.sprintf "node %d's NIC closed" peer)
        (peer = 3)
        (Bftnet.Network.nic_closed (Rbft.Cluster.network cluster) ~node:0
           ~peer:(Bftcrypto.Principal.node peer)))
    [ 1; 2; 3 ]

let test_unfair_primary_lambda_triggers_change () =
  (* Figure 12's mechanism: the master primary delays one client's
     requests beyond Λ; nodes vote a protocol instance change. *)
  let params =
    { (mk_params ~delta:0.5 ()) with Rbft.Params.lambda = Time.ms 15 }
  in
  let cluster = saturate ~nclients:2 ~rate:200.0 ~params () in
  let master_replica = Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0 in
  (Pbftcore.Replica.adversary master_replica).Pbftcore.Replica.client_hold <-
    (fun id -> if id.Pbftcore.Types.client = 0 then Time.ms 25 else Time.zero);
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Alcotest.(check bool) "instance change happened" true
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1) >= 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let test_invalid_signature_blacklists () =
  let p = Bftmetrics.Probe.create () in
  let params = mk_params () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:2 params in
  let bad = Rbft.Cluster.client cluster 0 in
  (Rbft.Client.behaviour bad).Rbft.Client.sig_valid <- false;
  Rbft.Client.send_one bad;
  Rbft.Cluster.run_for cluster (Time.ms 100);
  Alcotest.(check bool) "blacklisted at node 1" true
    (Rbft.Node.is_blacklisted (Rbft.Cluster.node cluster 1) ~client:0);
  Alcotest.(check int) "nothing executed" 0 (Rbft.Cluster.total_executed cluster);
  (* A correct client is unaffected. *)
  let good = Rbft.Cluster.client cluster 1 in
  Rbft.Client.send_one good;
  Rbft.Cluster.run_for cluster (Time.ms 200);
  Alcotest.(check int) "good client served" 1 (Rbft.Client.completed good)

let test_selective_mac_still_served () =
  let p = Bftmetrics.Probe.create () in
  (* Worst-attack-1 action (i): the client's authenticator is invalid
     for node 0 only; the request still reaches node 0 via PROPAGATE
     and completes. *)
  let params = mk_params () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:1 params in
  let c = Rbft.Cluster.client cluster 0 in
  (Rbft.Client.behaviour c).Rbft.Client.mac_invalid_for <- [ 0 ];
  Rbft.Client.send_one c;
  Rbft.Cluster.run_for cluster (Time.ms 300);
  Alcotest.(check int) "completed" 1 (Rbft.Client.completed c);
  Alcotest.(check int) "executed everywhere incl. node 0" 1
    (Rbft.Node.executed_count (Rbft.Cluster.node cluster 0))

let test_duplicate_request_rereplied () =
  let p = Bftmetrics.Probe.create () in
  let params = mk_params () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:1 params in
  let c = Rbft.Cluster.client cluster 0 in
  Rbft.Client.send_one c;
  Rbft.Cluster.run_for cluster (Time.ms 300);
  Alcotest.(check int) "completed" 1 (Rbft.Client.completed c);
  Alcotest.(check int) "executed once" 1 (Rbft.Cluster.total_executed cluster)

let test_f2_cluster_works () =
  let p = Bftmetrics.Probe.create () in
  let params = mk_params ~f:2 () in
  let cluster =
    Rbft.Cluster.create ~probe:p ~clients:3 params
  in
  Array.iter (fun c -> Rbft.Client.set_rate c 300.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  Alcotest.(check int) "7 nodes" 7 (Array.length (Rbft.Cluster.nodes cluster));
  Alcotest.(check bool) "progress" true (Rbft.Cluster.total_executed cluster > 500);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[]);
  Alcotest.(check int) "3 instances" 3 (Rbft.Params.instances params)

let test_switch_master_recovery () =
  let params =
    { (mk_params ~delta:0.9 ()) with Rbft.Params.recovery = Rbft.Params.Switch_master }
  in
  let cluster = saturate ~params () in
  let master_replica = Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0 in
  (Pbftcore.Replica.adversary master_replica).Pbftcore.Replica.pp_extra_delay <-
    (fun () -> Time.ms 50);
  Rbft.Cluster.run_for cluster (Time.sec 2);
  (* Check the switch while the load is still running: stopping the
     clients lets the throttled old master drain its backlog faster
     than the (idle) new master, which legitimately re-triggers the
     ratio test. *)
  Array.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "node %d switched master" (Rbft.Node.id node))
        1 (Rbft.Node.master_instance node))
    (Rbft.Cluster.nodes cluster);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let test_closed_loop_client () =
  let p = Bftmetrics.Probe.create () in
  let params = mk_params () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:1 params in
  let c = Rbft.Cluster.client cluster 0 in
  Rbft.Client.set_closed_loop c ~outstanding:4;
  Rbft.Cluster.run_for cluster (Time.ms 500);
  (* The window stays constant: sent = completed + outstanding. *)
  Alcotest.(check int) "window respected" (Rbft.Client.completed c + 4) (Rbft.Client.sent c);
  Alcotest.(check bool) "progress" true (Rbft.Client.completed c > 50);
  (* Switching back to open loop stops the feedback sending. *)
  Rbft.Client.set_rate c 0.0;
  let sent_before = Rbft.Client.sent c in
  Rbft.Cluster.run_for cluster (Time.ms 300);
  Alcotest.(check int) "no new requests" sent_before (Rbft.Client.sent c)

let test_primary_placement () =
  let params = mk_params ~f:2 () in
  (* At any view, the f+1 primaries sit on distinct nodes. *)
  for view = 0 to 20 do
    let primaries =
      List.init (Rbft.Params.instances params) (fun i ->
          Rbft.Params.primary_of params ~instance:i ~view)
    in
    Alcotest.(check int)
      (Printf.sprintf "distinct primaries at view %d" view)
      (List.length primaries)
      (List.length (List.sort_uniq compare primaries))
  done

(* ------------------------------------------------------------------ *)
(* Instance-change vote set edge cases                                *)
(*                                                                    *)
(* Votes are tracked as per-node maxima plus a bitset of voters whose
   maximum covers the *current* cpi; the bitset is rebuilt from the
   maxima whenever the cpi advances. These tests inject raw
   Instance_change messages into an otherwise idle cluster (no
   workload, so no organic suspicion) and watch node 0's vote state. *)
(* ------------------------------------------------------------------ *)

let ic_idle_cluster () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:1 (mk_params ()) in
  Rbft.Cluster.run_for cluster (Time.ms 1);
  cluster

(* The vote counts for its authenticated source, a principal: the
   message itself names no voter. *)
let ic_vote_from cluster src ~cpi =
  Bftnet.Network.send
    (Rbft.Cluster.network cluster)
    ~src ~dst:(Bftcrypto.Principal.node 0) ~size:16
    (Rbft.Messages.Instance_change { cpi });
  Rbft.Cluster.run_for cluster (Time.ms 5)

let ic_vote cluster ~src ~cpi = ic_vote_from cluster (Bftcrypto.Principal.node src) ~cpi

let test_ic_duplicate_votes_counted_once () =
  let cluster = ic_idle_cluster () in
  let n0 = Rbft.Cluster.node cluster 0 in
  ic_vote cluster ~src:1 ~cpi:0;
  ic_vote cluster ~src:1 ~cpi:0;
  ic_vote cluster ~src:1 ~cpi:0;
  Alcotest.(check int) "replayed vote counts once" 1 (Rbft.Node.ic_vote_count n0);
  Alcotest.(check int) "no change below quorum" 0 (Rbft.Node.instance_changes n0);
  ic_vote cluster ~src:2 ~cpi:0;
  Alcotest.(check int) "distinct voter counts" 2 (Rbft.Node.ic_vote_count n0);
  Alcotest.(check int) "2 < 2f+1: still no change" 0
    (Rbft.Node.instance_changes n0)

(* Client 1 is not node 1: a vote from a client principal never enters
   the vote set, whatever its index. *)
let test_ic_client_vote_ignored () =
  let cluster = ic_idle_cluster () in
  let n0 = Rbft.Cluster.node cluster 0 in
  ic_vote_from cluster (Bftcrypto.Principal.client 1) ~cpi:0;
  Alcotest.(check int) "a client is no voter" 0 (Rbft.Node.ic_vote_count n0);
  Alcotest.(check int) "node 1 has not voted" (-1) (Rbft.Node.ic_vote_cpi_of n0 ~node:1);
  Alcotest.(check int) "out-of-range lookup is -1" (-1)
    (Rbft.Node.ic_vote_cpi_of n0 ~node:7);
  (* The node remains fully functional for legitimate votes. *)
  ic_vote cluster ~src:1 ~cpi:0;
  Alcotest.(check int) "legitimate vote still lands" 1
    (Rbft.Node.ic_vote_count n0)

(* One Byzantine node trying to vote in three nodes' names must not make
   a 2f+1 quorum. The message names no voter, so the most it can do is
   vote three times from its own source — which is one voter. *)
let test_ic_forged_voters_ignored () =
  let cluster = ic_idle_cluster () in
  let n0 = Rbft.Cluster.node cluster 0 in
  ic_vote cluster ~src:3 ~cpi:0;
  ic_vote cluster ~src:3 ~cpi:0;
  ic_vote cluster ~src:3 ~cpi:0;
  Alcotest.(check int) "src 3 is one vote" 1 (Rbft.Node.ic_vote_count n0);
  Alcotest.(check int) "no instance change" 0 (Rbft.Node.instance_changes n0)

let test_ic_bitset_rebuild_after_advance () =
  let cluster = ic_idle_cluster () in
  let n0 = Rbft.Cluster.node cluster 0 in
  (* Node 1 votes far ahead; 2 and 3 vote for the current cpi. *)
  ic_vote cluster ~src:1 ~cpi:5;
  ic_vote cluster ~src:2 ~cpi:0;
  Alcotest.(check int) "forward vote covers cpi 0 too" 2
    (Rbft.Node.ic_vote_count n0);
  ic_vote cluster ~src:3 ~cpi:0;
  (* Quorum of 3: node 0 changes, advances to cpi 1 and rebuilds the
     bitset from the maxima — only node 1's forward vote survives. *)
  Alcotest.(check int) "change performed" 1 (Rbft.Node.instance_changes n0);
  Alcotest.(check int) "cpi advanced" 1 (Rbft.Node.cpi n0);
  Alcotest.(check int) "rebuilt set keeps the forward vote" 1
    (Rbft.Node.ic_vote_count n0);
  Alcotest.(check int) "node 1 maximum retained" 5
    (Rbft.Node.ic_vote_cpi_of n0 ~node:1);
  Alcotest.(check int) "node 2 maximum retained" 0
    (Rbft.Node.ic_vote_cpi_of n0 ~node:2);
  (* A stale re-send for the old cpi must not re-enter the set... *)
  ic_vote cluster ~src:2 ~cpi:0;
  Alcotest.(check int) "stale vote ignored after advance" 1
    (Rbft.Node.ic_vote_count n0);
  (* ...while catch-up votes for the new cpi complete a second quorum. *)
  ic_vote cluster ~src:2 ~cpi:1;
  ic_vote cluster ~src:3 ~cpi:1;
  Alcotest.(check int) "second change" 2 (Rbft.Node.instance_changes n0);
  Alcotest.(check int) "cpi 2" 2 (Rbft.Node.cpi n0)

let prop_monitoring_delta_boundary =
  QCheck.Test.make ~name:"delta verdict matches the ratio arithmetic"
    QCheck.(pair (int_range 100 100_000) (int_range 100 100_000))
    (fun (master, backup) ->
      let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
      Rbft.Monitoring.note_ordered m ~instance:0 ~count:master;
      Rbft.Monitoring.note_ordered m ~instance:1 ~count:backup;
      let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
      let expected =
        float_of_int backup >= 50.0
        && float_of_int master < 0.9 *. float_of_int backup
      in
      v.Rbft.Monitoring.suspicious = expected)

let prop_primary_placement_distinct =
  QCheck.Test.make ~name:"at most one primary per node at any view"
    QCheck.(pair (int_range 1 4) (int_bound 1000))
    (fun (f, view) ->
      let params = Rbft.Params.default ~f in
      let primaries =
        List.init (Rbft.Params.instances params) (fun i ->
            Rbft.Params.primary_of params ~instance:i ~view)
      in
      List.length (List.sort_uniq compare primaries) = List.length primaries)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "rbft.monitoring",
      [
        Alcotest.test_case "rates" `Quick test_monitoring_rates;
        Alcotest.test_case "detects slow master" `Quick test_monitoring_detects_slow_master;
        Alcotest.test_case "tolerates within delta" `Quick
          test_monitoring_tolerates_within_delta;
        Alcotest.test_case "idle not suspicious" `Quick test_monitoring_idle_not_suspicious;
        Alcotest.test_case "window reset" `Quick test_monitoring_window_reset;
        Alcotest.test_case "zero-length window" `Quick test_monitoring_zero_window;
        Alcotest.test_case "3-window moving average" `Quick
          test_monitoring_three_window_average;
        Alcotest.test_case "idle backups gate the ratio" `Quick
          test_monitoring_idle_backup_ratio_nan;
        Alcotest.test_case "bounded history ring" `Quick
          test_monitoring_bounded_history;
        Alcotest.test_case "lambda check" `Quick test_monitoring_lambda;
        Alcotest.test_case "omega check" `Quick test_monitoring_omega;
      ]
      @ qsuite [ prop_monitoring_delta_boundary; prop_primary_placement_distinct ] );
    ( "rbft.cluster",
      [
        Alcotest.test_case "fault-free completion" `Quick test_fault_free_completion;
        Alcotest.test_case "backups order, master executes" `Quick
          test_backup_orders_but_does_not_execute;
        Alcotest.test_case "f=2 cluster" `Quick test_f2_cluster_works;
        Alcotest.test_case "primary placement" `Quick test_primary_placement;
        Alcotest.test_case "duplicate request" `Quick test_duplicate_request_rereplied;
        Alcotest.test_case "closed-loop client" `Quick test_closed_loop_client;
      ] );
    ( "rbft.ic-votes",
      [
        Alcotest.test_case "duplicate votes counted once" `Quick
          test_ic_duplicate_votes_counted_once;
        Alcotest.test_case "an IC vote from a client principal is ignored" `Quick
          test_ic_client_vote_ignored;
        Alcotest.test_case "forged voter ids ignored" `Quick
          test_ic_forged_voters_ignored;
        Alcotest.test_case "bitset rebuilt on cpi advance" `Quick
          test_ic_bitset_rebuild_after_advance;
      ] );
    ( "rbft.attacks",
      [
        Alcotest.test_case "instance change on slow master" `Quick
          test_instance_change_on_slow_master_primary;
        Alcotest.test_case "no change within delta" `Quick
          test_no_instance_change_when_master_within_delta;
        Alcotest.test_case "worst-attack-1 resisted" `Quick
          test_worst_attack_1_no_instance_change;
        Alcotest.test_case "flood closes NIC" `Quick test_flood_closes_nic;
        Alcotest.test_case "forged junk spares the named peer" `Quick
          test_forged_junk_spares_named_peer;
        Alcotest.test_case "unfair primary evicted (Fig 12)" `Quick
          test_unfair_primary_lambda_triggers_change;
        Alcotest.test_case "invalid signature blacklists" `Quick
          test_invalid_signature_blacklists;
        Alcotest.test_case "selective MAC (attack-1 action i)" `Quick
          test_selective_mac_still_served;
        Alcotest.test_case "switch-master extension" `Quick test_switch_master_recovery;
      ] );
  ]
