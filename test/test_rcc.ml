(* Tests for the concurrent (bftrcc) ordering mode: the client
   partitioner, the deterministic merge sequencer, and the
   rbft-concurrent cluster pipeline end to end. *)

open Dessim

(* ------------------------------------------------------------------ *)
(* Partitioner                                                        *)
(* ------------------------------------------------------------------ *)

let test_partitioner_range_and_stability () =
  for instances = 1 to 5 do
    let p = Bftrcc.Partitioner.create ~instances in
    for client = -3 to 500 do
      let o = Bftrcc.Partitioner.owner p ~client in
      Alcotest.(check bool)
        (Printf.sprintf "owner in range (i=%d c=%d)" instances client)
        true
        (o >= 0 && o < instances);
      Alcotest.(check int) "stable" o (Bftrcc.Partitioner.owner p ~client)
    done
  done

let test_partitioner_single_instance () =
  let p = Bftrcc.Partitioner.create ~instances:1 in
  for client = 0 to 50 do
    Alcotest.(check int) "all on 0" 0 (Bftrcc.Partitioner.owner p ~client)
  done

(* Balance under a Zipf-skewed load: client c (1-based rank) issues a
   volume proportional to 1/c. The partitioner only hashes ids, so the
   property is statistical — with a few hundred clients no partition
   may end up starved or hoarding the load. *)
let prop_partitioner_zipf_balance =
  QCheck.Test.make ~count:50 ~name:"partitioner balance under Zipf load"
    QCheck.(pair (int_range 2 4) (int_range 100 400))
    (fun (instances, nclients) ->
      let p = Bftrcc.Partitioner.create ~instances in
      let load = Array.make instances 0.0 in
      let total = ref 0.0 in
      for c = 1 to nclients do
        let v = 1.0 /. float_of_int c in
        load.(Bftrcc.Partitioner.owner p ~client:c) <-
          load.(Bftrcc.Partitioner.owner p ~client:c) +. v;
        total := !total +. v
      done;
      let fair = !total /. float_of_int instances in
      Array.for_all (fun l -> l > 0.2 *. fair && l < 2.5 *. fair) load)

(* ------------------------------------------------------------------ *)
(* Sequencer                                                          *)
(* ------------------------------------------------------------------ *)

let collect_sequencer instances =
  let order = ref [] in
  let s =
    Bftrcc.Sequencer.create ~instances ~emit:(fun ~instance ~seq payload ->
        order := (instance, seq, payload) :: !order)
  in
  (s, fun () -> List.rev !order)

let test_sequencer_round_robin () =
  let s, emitted = collect_sequencer 2 in
  (* Instance 1 runs ahead; nothing may be emitted past the round-robin
     frontier until instance 0 catches up. *)
  Bftrcc.Sequencer.push s ~instance:1 ~seq:1 ~now:Time.zero "b1";
  Alcotest.(check int) "held" 0 (List.length (emitted ()));
  Bftrcc.Sequencer.push s ~instance:0 ~seq:1 ~now:Time.zero "a1";
  Alcotest.(check (list (triple int int string)))
    "round 1 in instance order"
    [ (0, 1, "a1"); (1, 1, "b1") ]
    (emitted ());
  Bftrcc.Sequencer.push s ~instance:0 ~seq:2 ~now:Time.zero "a2";
  Bftrcc.Sequencer.push s ~instance:0 ~seq:3 ~now:Time.zero "a3";
  Bftrcc.Sequencer.push s ~instance:1 ~seq:2 ~now:Time.zero "b2";
  Alcotest.(check (list (triple int int string)))
    "lockstep"
    [ (0, 1, "a1"); (1, 1, "b1"); (0, 2, "a2"); (1, 2, "b2"); (0, 3, "a3") ]
    (emitted ());
  let st = Bftrcc.Sequencer.stats s in
  Alcotest.(check int) "merged" 5 st.Bftrcc.Sequencer.merged;
  Alcotest.(check int) "rounds" 2 st.Bftrcc.Sequencer.rounds

let test_sequencer_stall_accounting () =
  let s, _ = collect_sequencer 3 in
  Alcotest.(check bool) "no stall when empty" true
    (Bftrcc.Sequencer.stall s ~now:(Time.ms 5) = None);
  Bftrcc.Sequencer.push s ~instance:2 ~seq:1 ~now:(Time.ms 10) "c1";
  (match Bftrcc.Sequencer.stall s ~now:(Time.ms 250) with
  | Some (inst, age) ->
    Alcotest.(check int) "waiting on instance 0" 0 inst;
    Alcotest.(check int) "age" (Time.ms 240 : Time.t) (age : Time.t)
  | None -> Alcotest.fail "expected a stall");
  Bftrcc.Sequencer.push s ~instance:0 ~seq:1 ~now:(Time.ms 260) "a1";
  (match Bftrcc.Sequencer.stall s ~now:(Time.ms 300) with
  | Some (inst, _) -> Alcotest.(check int) "now waiting on 1" 1 inst
  | None -> Alcotest.fail "still stalled on instance 1");
  Bftrcc.Sequencer.push s ~instance:1 ~seq:1 ~now:(Time.ms 310) "b1";
  Alcotest.(check bool) "drained" true
    (Bftrcc.Sequencer.stall s ~now:(Time.ms 320) = None)

let test_sequencer_gap_accounting () =
  let s, emitted = collect_sequencer 1 in
  Bftrcc.Sequencer.push s ~instance:0 ~seq:1 ~now:Time.zero "a1";
  (* A checkpoint state transfer jumps the per-instance seqno; the
     merge keys on arrival order and just counts the gap. *)
  Bftrcc.Sequencer.push s ~instance:0 ~seq:5 ~now:Time.zero "a5";
  Alcotest.(check int) "both emitted" 2 (List.length (emitted ()));
  Alcotest.(check int) "gap counted" 1
    (Bftrcc.Sequencer.stats s).Bftrcc.Sequencer.gaps

(* Merge determinism: however the per-instance streams interleave on
   arrival (per-instance order is fixed — PBFT delivers in seqno
   order), the emitted global order is identical. *)
let prop_sequencer_merge_deterministic =
  QCheck.Test.make ~count:100
    ~name:"sequencer merge order independent of delivery interleaving"
    QCheck.(triple (int_range 2 4) (int_range 1 20) (int_range 0 10_000))
    (fun (instances, rounds, seed) ->
      (* Streams: instance i delivers batches (i, 1) .. (i, rounds). *)
      let digest_of order =
        String.concat ";"
          (List.map (fun (i, s, _) -> Printf.sprintf "%d.%d" i s) order)
      in
      let reference =
        let s, emitted = collect_sequencer instances in
        for seq = 1 to rounds do
          for i = 0 to instances - 1 do
            Bftrcc.Sequencer.push s ~instance:i ~seq ~now:Time.zero ()
          done
        done;
        digest_of (emitted ())
      in
      let rng = Random.State.make [| seed |] in
      let permuted_ok = ref true in
      for _trial = 1 to 5 do
        let s, emitted = collect_sequencer instances in
        (* Random interleaving that respects per-instance order. *)
        let next = Array.make instances 1 in
        let remaining = ref (instances * rounds) in
        while !remaining > 0 do
          let i = Random.State.int rng instances in
          if next.(i) <= rounds then begin
            Bftrcc.Sequencer.push s ~instance:i ~seq:next.(i) ~now:Time.zero ();
            next.(i) <- next.(i) + 1;
            decr remaining
          end
        done;
        if digest_of (emitted ()) <> reference then permuted_ok := false
      done;
      !permuted_ok)

(* ------------------------------------------------------------------ *)
(* Monitoring normalization                                           *)
(* ------------------------------------------------------------------ *)

let mk_params ?(f = 1) ?(delta = 0.9) () =
  { (Rbft.Params.default ~f) with Rbft.Params.delta }

let test_normalized_light_partition_not_suspicious () =
  (* The master owns a light partition: it orders 10% of the load
     because only 10% was offered to it. Raw rates would scream
     "slow master"; the normalized check must stay calm. *)
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:100;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:900;
  Rbft.Monitoring.note_offered m ~instance:0 ~count:100;
  Rbft.Monitoring.note_offered m ~instance:1 ~count:900;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "not suspicious" false v.Rbft.Monitoring.suspicious;
  Alcotest.(check (float 1e-6)) "master weight" 0.1
    v.Rbft.Monitoring.weights.(0)

let test_normalized_throttling_master_suspicious () =
  (* The master owns half the load but orders a fraction of it while
     the backup keeps up with its own half: normalized ratio collapses
     and the Δ test fires. *)
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:100;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:500;
  Rbft.Monitoring.note_offered m ~instance:0 ~count:500;
  Rbft.Monitoring.note_offered m ~instance:1 ~count:500;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "suspicious" true v.Rbft.Monitoring.suspicious

let test_normalization_identity_without_offered () =
  (* Redundant mode never calls note_offered: uniform weights, raw
     rates, the paper's verdict. *)
  let m = Rbft.Monitoring.create (mk_params ~delta:0.9 ()) in
  Rbft.Monitoring.note_ordered m ~instance:0 ~count:500;
  Rbft.Monitoring.note_ordered m ~instance:1 ~count:1000;
  let v = Rbft.Monitoring.tick m ~now:(Time.sec 1) in
  Alcotest.(check bool) "suspicious on raw rates" true
    v.Rbft.Monitoring.suspicious;
  Alcotest.(check (float 1e-6)) "uniform weight" 0.5
    v.Rbft.Monitoring.weights.(0)

(* ------------------------------------------------------------------ *)
(* Concurrent cluster end to end                                      *)
(* ------------------------------------------------------------------ *)

let conc_params ?(f = 1) ?(delta = 0.9) () =
  {
    (Rbft.Params.default ~f) with
    Rbft.Params.ordering = Rbft.Params.Concurrent;
    delta;
  }

let saturate ?(rate = 800.0) ?(nclients = 4) ?(params = conc_params ()) () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:nclients ~payload_size:8 params in
  Array.iter (fun c -> Rbft.Client.set_rate c rate) (Rbft.Cluster.clients cluster);
  cluster

let stop_clients cluster =
  Array.iter (fun c -> Rbft.Client.set_rate c 0.0) (Rbft.Cluster.clients cluster)

let test_concurrent_completion_and_agreement () =
  let cluster = saturate () in
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  let sent =
    Array.fold_left
      (fun acc c -> acc + Rbft.Client.sent c)
      0 (Rbft.Cluster.clients cluster)
  in
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d all completed" (Rbft.Client.id c))
        (Rbft.Client.sent c) (Rbft.Client.completed c))
    (Rbft.Cluster.clients cluster);
  Alcotest.(check int) "all executed once" sent
    (Rbft.Cluster.total_executed cluster);
  Alcotest.(check bool) "agreement" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[]);
  Alcotest.(check int) "no instance change" 0
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 0));
  Array.iter
    (fun node ->
      Alcotest.(check (list int)) "no degraded partitions" []
        (Rbft.Node.degraded_partitions node))
    (Rbft.Cluster.nodes cluster)

let test_concurrent_partitions_share_ordering () =
  (* Each instance orders only its own partition: the per-instance
     ordered counts must all be well below the total (in redundant
     mode every instance orders everything). *)
  let cluster = saturate ~nclients:6 () in
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  let node = Rbft.Cluster.node cluster 0 in
  let total = Rbft.Cluster.total_executed cluster in
  Alcotest.(check bool) "progress" true (total > 1000);
  let instances = Rbft.Params.instances (Rbft.Cluster.params cluster) in
  let sum = ref 0 in
  for i = 0 to instances - 1 do
    let ordered =
      Pbftcore.Replica.ordered_count (Rbft.Node.replica node ~instance:i)
    in
    sum := !sum + ordered;
    Alcotest.(check bool)
      (Printf.sprintf "instance %d orders a strict subset" i)
      true (ordered < total)
  done;
  (* Together (plus no-op heartbeats) they cover the whole load once. *)
  Alcotest.(check bool) "partitions cover the load" true (!sum >= total)

let test_concurrent_empty_partition_progress () =
  (* One busy client: the other partitions stay idle and only keep the
     merge flowing via no-op heartbeats. The busy partition's requests
     must still execute. *)
  let cluster = saturate ~nclients:1 ~rate:500.0 () in
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  let c = Rbft.Cluster.client cluster 0 in
  Alcotest.(check int) "single client fully served" (Rbft.Client.sent c)
    (Rbft.Client.completed c);
  Alcotest.(check bool) "agreement" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let test_concurrent_f2_scales () =
  let cluster = saturate ~nclients:6 ~params:(conc_params ~f:2 ()) () in
  Rbft.Cluster.run_for cluster (Time.sec 1);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  Alcotest.(check bool) "progress" true
    (Rbft.Cluster.total_executed cluster > 1000);
  Alcotest.(check bool) "agreement" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let auditor_invariants a =
  List.map
    (fun v -> v.Bftaudit.Auditor.invariant)
    (Bftaudit.Auditor.violations a)

let test_concurrent_worst1_resisted () =
  let p = Bftmetrics.Probe.create () in
  (* Worst-attack-1 against the concurrent mode, audited and at
     saturation: the clients break their authenticator entry for node
     0 (primary of instance 0), the faulty node floods it and its
     instance-0 replica goes silent. Eligibility for ordering always
     requires remote PROPAGATE corroboration, so even the fault-free
     primary dispatches at propagate speed and the starved one loses
     only the difference: degradation stays inside the Δ envelope.
     The normalized check must not demote a correct primary, and the
     safety auditor must stay clean. *)
  let a = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  let cluster =
    Rbft.Cluster.create ~probe:p ~clients:6 ~payload_size:8 (conc_params ~delta:0.9 ())
  in
  Array.iter
    (fun c -> Rbft.Client.set_closed_loop c ~outstanding:48)
    (Rbft.Cluster.clients cluster);
  Rbft.Attacks.worst_attack_1 cluster;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 1);
  Bftaudit.Auditor.detach a;
  Alcotest.(check (list string)) "no safety violations" []
    (auditor_invariants a);
  Alcotest.(check int) "attack resisted: no instance change" 0
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 0));
  Alcotest.(check bool) "progress through the attack" true
    (Rbft.Cluster.total_executed cluster > 20_000);
  Alcotest.(check bool) "agreement among correct nodes" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[ 3 ])

let test_concurrent_worst2_normalized_delta_demotes () =
  let p = Bftmetrics.Probe.create () in
  (* Worst-attack-2: the faulty node IS the master primary and
     throttles its pre-prepares down to (Δ + margin) × the mean RAW
     backup rate — the envelope that keeps it in office in redundant
     mode, where every instance sees the same load. Under partitioned
     ordering with a skewed load that envelope is the wrong model: the
     master owns the heavy partition, so capping at the light
     partition's raw rate is a drastic throttle, and the
     weight-normalized Δ check sees straight through it. The demotion
     must fire, the degrade path must keep the backlog executing, and
     the auditor must stay clean. *)
  let a = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  let params = conc_params ~delta:0.9 () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:6 ~payload_size:8 params in
  let part =
    Bftrcc.Partitioner.create ~instances:(Rbft.Params.instances params)
  in
  (* Skew the offered load: the master's partition carries 4× the
     per-client rate of the backup's. *)
  Array.iter
    (fun c ->
      let owner = Bftrcc.Partitioner.owner part ~client:(Rbft.Client.id c) in
      Rbft.Client.set_rate c (if owner = 0 then 4000.0 else 1000.0))
    (Rbft.Cluster.clients cluster);
  Rbft.Attacks.worst_attack_2 cluster;
  Rbft.Cluster.run_for cluster (Time.sec 3);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Bftaudit.Auditor.detach a;
  Alcotest.(check (list string)) "no safety violations" []
    (auditor_invariants a);
  Alcotest.(check bool) "attacked partition's master demoted" true
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1) >= 1);
  let r0 = Rbft.Node.replica (Rbft.Cluster.node cluster 1) ~instance:0 in
  Alcotest.(check bool) "primary rotated off the throttling node" true
    (Pbftcore.Replica.current_primary r0 <> 0);
  Alcotest.(check bool) "degrade path kept requests executing" true
    (Rbft.Cluster.total_executed cluster > 20_000);
  Alcotest.(check bool) "agreement among correct nodes" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[ 0 ])

let test_concurrent_stall_change_on_crashed_owner () =
  (* The primary of instance 1 (node 1) dies silently: partition 1
     stops committing, which the Δ rate comparison cannot see (no
     rates to compare) — the merge stalls instead, the stall-triggered
     instance change fires, and the degrade path re-routes partition
     1's requests through the other primaries. *)
  let params = conc_params () in
  let cluster = saturate ~nclients:4 ~rate:400.0 ~params () in
  Rbft.Attacks.install cluster
    (Rbft.Attacks.node 1
       [
         Drop_client_requests;
         No_propagate;
         Silent (List.init (Rbft.Params.instances params) Fun.id);
       ]);
  Rbft.Cluster.run_for cluster (Time.sec 3);
  stop_clients cluster;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Alcotest.(check bool) "stall-triggered instance change" true
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 0) >= 1);
  Alcotest.(check bool) "requests keep executing" true
    (Rbft.Cluster.total_executed cluster > 500);
  Alcotest.(check bool) "agreement among live nodes" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[ 1 ])

let test_concurrent_matches_redundant_safety () =
  let p = Bftmetrics.Probe.create () in
  (* Same seed, same load, both modes: the concurrent mode must serve
     every request exactly once, like the redundant baseline. *)
  let run params =
    let cluster = Rbft.Cluster.create ~probe:p ~seed:7L ~clients:3 params in
    Array.iter
      (fun c -> Rbft.Client.set_rate c 300.0)
      (Rbft.Cluster.clients cluster);
    Rbft.Cluster.run_for cluster (Time.sec 1);
    stop_clients cluster;
    Rbft.Cluster.run_for cluster (Time.sec 1);
    let sent =
      Array.fold_left
        (fun acc c -> acc + Rbft.Client.sent c)
        0 (Rbft.Cluster.clients cluster)
    in
    (sent, Rbft.Cluster.total_executed cluster,
     Rbft.Cluster.agreement_ok cluster ~faulty:[])
  in
  let rs, rx, rok = run (mk_params ()) in
  let cs, cx, cok = run (conc_params ()) in
  Alcotest.(check int) "redundant executes all" rs rx;
  Alcotest.(check int) "concurrent executes all" cs cx;
  Alcotest.(check bool) "redundant agreement" true rok;
  Alcotest.(check bool) "concurrent agreement" true cok

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "rcc.partitioner",
      [
        Alcotest.test_case "range and stability" `Quick
          test_partitioner_range_and_stability;
        Alcotest.test_case "single instance" `Quick
          test_partitioner_single_instance;
      ]
      @ qsuite [ prop_partitioner_zipf_balance ] );
    ( "rcc.sequencer",
      [
        Alcotest.test_case "round robin" `Quick test_sequencer_round_robin;
        Alcotest.test_case "stall accounting" `Quick
          test_sequencer_stall_accounting;
        Alcotest.test_case "gap accounting" `Quick
          test_sequencer_gap_accounting;
      ]
      @ qsuite [ prop_sequencer_merge_deterministic ] );
    ( "rcc.monitoring",
      [
        Alcotest.test_case "light partition not suspicious" `Quick
          test_normalized_light_partition_not_suspicious;
        Alcotest.test_case "throttling master suspicious" `Quick
          test_normalized_throttling_master_suspicious;
        Alcotest.test_case "identity without offered" `Quick
          test_normalization_identity_without_offered;
      ] );
    ( "rcc.cluster",
      [
        Alcotest.test_case "completion and agreement" `Quick
          test_concurrent_completion_and_agreement;
        Alcotest.test_case "partitions share ordering" `Quick
          test_concurrent_partitions_share_ordering;
        Alcotest.test_case "empty partition progress" `Quick
          test_concurrent_empty_partition_progress;
        Alcotest.test_case "f=2 scales" `Quick test_concurrent_f2_scales;
        Alcotest.test_case "worst1 resisted" `Slow
          test_concurrent_worst1_resisted;
        Alcotest.test_case "worst2 demoted by normalized delta" `Slow
          test_concurrent_worst2_normalized_delta_demotes;
        Alcotest.test_case "stall change on crashed owner" `Slow
          test_concurrent_stall_change_on_crashed_owner;
        Alcotest.test_case "matches redundant safety" `Quick
          test_concurrent_matches_redundant_safety;
      ] );
  ]
