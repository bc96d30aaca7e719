open Dessim

let for_all_clients cluster f = Array.iter f (Cluster.clients cluster)

let flood_rate_for ~aggressive =
  (* The NIC-closing threshold admits [flood_threshold] invalid
     messages per monitoring period; a smart attacker floods just
     below it, a brute-force one well above. *)
  let per_period = float_of_int Params.flood_threshold in
  let period = Time.to_sec_f Params.monitoring_period in
  if aggressive then 4.0 *. per_period /. period else 0.8 *. per_period /. period

let worst_attack_1 cluster =
  let params = Cluster.params cluster in
  let n = Params.n params and f = params.Params.f in
  let master_primary_node = Params.primary_of params ~instance:Params.master_instance ~view:0 in
  let faulty_nodes = List.init f (fun i -> n - 1 - i) in
  Bftmetrics.Probe.declare_faulty (Cluster.probe cluster) faulty_nodes;
  (* (i) clients: authenticator broken for the master-primary node. *)
  for_all_clients cluster (fun c ->
      (Client.behaviour c).Client.mac_invalid_for <- [ master_primary_node ]);
  List.iter
    (fun id ->
      let node = Cluster.node cluster id in
      let faults = Node.faults node in
      (* (ii)+(iii) flood the master-primary node with junk of maximal
         size; it will close the offending NICs. *)
      faults.Node.flood_targets <- [ master_primary_node ];
      faults.Node.flood_rate <- flood_rate_for ~aggressive:true;
      (* (iv) the faulty master-instance replicas stop participating;
         backup replicas keep running at full speed. *)
      (Pbftcore.Replica.adversary (Node.replica node ~instance:Params.master_instance))
        .Pbftcore.Replica.silent <- true;
      faults.Node.no_propagate <- true)
    faulty_nodes

(* Periodically (every monitoring period) read the faulty node's own
   monitoring data and pace its [instance] replica's PRE-PREPAREs so
   that the master/backup throughput ratio observed by correct nodes
   stays just above Δ — the paper's "limit value such that the ratio
   observed at the correct nodes is greater or equal than Δ". *)
let install_delta_tracker cluster ~node ~instance ~margin =
  Bftmetrics.Probe.declare_faulty (Cluster.probe cluster) [ node ];
  let engine = Cluster.engine cluster in
  let params = Cluster.params cluster in
  let the_node = Cluster.node cluster node in
  let replica = Node.replica the_node ~instance in
  let cap = ref 0.0 in
  let prev_backup = ref 0.0 in
  (Pbftcore.Replica.adversary replica).Pbftcore.Replica.pp_rate_limit <-
    (fun () -> !cap);
  let rec loop () =
    ignore
      (Engine.after engine Params.monitoring_period (fun () ->
           (* The faulty node reads its own monitoring module — the
              same data correct nodes use for the Δ test. The cap is
              one window stale, so a smart attacker only throttles
              while the backup rate is stable: throttling against a
              rising rate would push the observed ratio under Δ and
              get it evicted. *)
           (match Monitoring.latest (Node.monitoring the_node) with
            | Some (_, rates) when Array.length rates > 1 ->
              let backups = Array.length rates - 1 in
              let sum = ref 0.0 in
              Array.iteri
                (fun i r -> if i <> Params.master_instance then sum := !sum +. r)
                rates;
              let backup_rate = !sum /. float_of_int backups in
              let stable =
                !prev_backup > 0.0
                && Float.abs (backup_rate -. !prev_backup) /. !prev_backup <= 0.05
              in
              prev_backup := backup_rate;
              let target = (params.Params.delta +. margin) *. backup_rate in
              cap := (if stable && target > 0.0 then target else 0.0)
            | Some _ | None -> ());
           loop ()))
  in
  loop ()

let worst_attack_2 cluster =
  let params = Cluster.params cluster in
  let f = params.Params.f in
  let n = Params.n params in
  (* The faulty nodes include the master primary's node (node 0 at
     view 0). *)
  let master_primary_node = Params.primary_of params ~instance:Params.master_instance ~view:0 in
  let faulty_nodes =
    master_primary_node :: List.init (f - 1) (fun i -> (master_primary_node + n - 1 - i) mod n)
  in
  Bftmetrics.Probe.declare_faulty (Cluster.probe cluster) faulty_nodes;
  List.iter
    (fun id ->
      let node = Cluster.node cluster id in
      let faults = Node.faults node in
      let correct =
        List.filter (fun j -> not (List.mem j faulty_nodes)) (List.init n (fun j -> j))
      in
      (* (ii) flood all correct nodes, but below the NIC-closing
         threshold: closing the faulty node's NIC would also cut off
         the master primary's ordering messages and end the attack. *)
      faults.Node.flood_targets <- correct;
      faults.Node.flood_rate <- flood_rate_for ~aggressive:false;
      faults.Node.no_propagate <- true;
      (* (iii) backup-instance replicas on faulty nodes stay silent. *)
      for i = 0 to Params.instances params - 1 do
        if i <> Params.master_instance then
          (Pbftcore.Replica.adversary (Node.replica node ~instance:i))
            .Pbftcore.Replica.silent <- true
      done)
    faulty_nodes;
  (* The malicious master primary delays down to the Δ envelope. *)
  install_delta_tracker cluster ~node:master_primary_node
    ~instance:Params.master_instance ~margin:0.035

let unfair_primary cluster ~node ~target_client ~after_requests ~hold =
  Bftmetrics.Probe.declare_faulty (Cluster.probe cluster) [ node ];
  let the_node = Cluster.node cluster node in
  let replica = Node.replica the_node ~instance:Params.master_instance in
  (Pbftcore.Replica.adversary replica).Pbftcore.Replica.client_hold <-
    (fun id ->
      if
        id.Pbftcore.Types.client = target_client
        && Pbftcore.Replica.ordered_count replica >= after_requests
      then hold
      else Time.zero)
