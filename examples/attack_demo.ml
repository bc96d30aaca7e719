(* Attack demo: runs RBFT under the paper's worst-attack-2 (Section
   VI-C2) and shows the monitoring mechanism at work: the malicious
   master primary throttles itself just above the Delta envelope, the
   monitored master/backup ratio stays legal, and no protocol instance
   change fires — the attack is contained to a few percent.

   Then the primary gets greedy (throttles well below Delta) and the
   nodes evict it.

   Run with: dune exec examples/attack_demo.exe *)

open Dessim

let print_monitoring cluster ~label =
  Printf.printf "%s\n" label;
  for node = 1 to 3 do
    let m = Rbft.Node.monitoring (Rbft.Cluster.node cluster node) in
    match Rbft.Monitoring.latest m with
    | Some (_, rates) ->
      Printf.printf
        "  node %d sees master %.1f kreq/s, backup %.1f kreq/s (ratio %.2f)\n"
        node (rates.(0) /. 1e3) (rates.(1) /. 1e3)
        (if rates.(1) > 0.0 then rates.(0) /. rates.(1) else 0.0)
    | None -> ()
  done;
  Printf.printf "  instance changes so far: %d\n\n"
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1))

(* Print the control-plane events as a structured timeline: suspicion
   verdicts, instance-change votes and the eviction itself. Data-plane
   events (orderings, executions) are left out — there are millions. *)
let timeline_sink (ev : Bftmetrics.Event.t) =
  match ev.kind with
  | Bftmetrics.Event.Instance_change_vote _ | Bftmetrics.Event.Instance_changed _
  | Bftmetrics.Event.Nic_closed _ | Bftmetrics.Event.Blacklisted _
  | Bftmetrics.Event.View_entered _ ->
    Printf.printf "  | %s\n" (Bftmetrics.Event.to_string ev)
  | Bftmetrics.Event.Monitor_verdict { suspicious = true; _ } ->
    Printf.printf "  | %s\n" (Bftmetrics.Event.to_string ev)
  | _ -> ()

let () =
  Printf.printf "== RBFT worst-attack-2 demo (f = 1, 8B requests) ==\n\n";
  let probe = Bftmetrics.Probe.create () in
  let (_ : unit -> unit) = Bftmetrics.Probe.subscribe probe timeline_sink in
  let auditor = Bftaudit.Auditor.attach ~probe ~n:4 ~f:1 () in
  (* Delta = 0.9 leaves the monitoring a clear noise margin; the smart
     primary will sit a whisker above it. *)
  let params = { (Rbft.Params.default ~f:1) with Rbft.Params.delta = 0.9 } in
  let cluster = Rbft.Cluster.create ~probe ~clients:10 params in
  Array.iter (fun c -> Rbft.Client.set_rate c 3600.0) (Rbft.Cluster.clients cluster);

  Printf.printf "phase 1: fault-free warmup\n";
  Rbft.Cluster.run_for cluster (Time.sec 1);
  print_monitoring cluster ~label:"monitoring after fault-free second:";

  Printf.printf "phase 2: worst-attack-2 (smart primary, floods, silent backups)\n";
  Rbft.Attacks.worst_attack_2 cluster;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  print_monitoring cluster
    ~label:"monitoring under attack (primary hugs the Delta envelope):";

  Printf.printf "phase 3: the primary gets greedy (drops to 30%% of backups)\n";
  let replica = Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0 in
  (Pbftcore.Replica.adversary replica).Pbftcore.Replica.pp_rate_limit <-
    (fun () -> 0.3 *. 34_000.0);
  Rbft.Cluster.run_for cluster (Time.sec 1);
  print_monitoring cluster ~label:"monitoring after the greedy move:";
  (* Drain in-flight requests before comparing execution logs. *)
  Array.iter (fun c -> Rbft.Client.set_rate c 0.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.sec 1);

  let changes = Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1) in
  Printf.printf "final primary of the master instance: node %d (%d instance change%s)\n"
    (Pbftcore.Replica.current_primary
       (Rbft.Node.replica (Rbft.Cluster.node cluster 1) ~instance:0))
    changes
    (if changes = 1 then "" else "s");
  Printf.printf "agreement among correct nodes: %b\n"
    (Rbft.Cluster.agreement_ok cluster ~faulty:[ 0 ]);
  Printf.printf "safety audit: %d events checked, %d violation(s)\n"
    (Bftaudit.Auditor.events_checked auditor)
    (List.length (Bftaudit.Auditor.violations auditor));
  if changes = 0 then exit 1
