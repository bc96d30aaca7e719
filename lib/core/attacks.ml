open Dessim

type flood = Aggressive | Below_threshold

type behaviour =
  | Flood of { targets : int list; flood : flood }
  | No_propagate
  | Drop_client_requests
  | Silent of int list
  | Delay_pre_prepares of Time.t
  | Throttle_pre_prepares of float
  | Pace_to_delta of float
  | Hold_client of { client : int; steps : (int * Time.t) list }

type plan = { nodes : (int * behaviour list) list; broken_macs_for : int list }

let faulty plan = List.map fst plan.nodes
let node id behaviours = { nodes = [ (id, behaviours) ]; broken_macs_for = [] }

let unfair_params params =
  { params with Params.lambda = Time.of_us_f 1500.0; batch_delay = Time.of_us_f 200.0 }

let master_primary params =
  Params.primary_of params ~instance:Params.master_instance ~view:0

let worst1 params =
  let n = Params.n params and f = params.Params.f in
  let primary = master_primary params in
  let behaviours =
    [
      Flood { targets = [ primary ]; flood = Aggressive };
      Silent [ Params.master_instance ];
      No_propagate;
    ]
  in
  { nodes = List.init f (fun i -> (n - 1 - i, behaviours)); broken_macs_for = [ primary ] }

let worst2 params =
  let n = Params.n params and f = params.Params.f in
  let primary = master_primary params in
  let faulty_nodes = primary :: List.init (f - 1) (fun i -> (primary + n - 1 - i) mod n) in
  let correct = List.filter (fun j -> not (List.mem j faulty_nodes)) (List.init n Fun.id) in
  let backups =
    List.filter (( <> ) Params.master_instance) (List.init (Params.instances params) Fun.id)
  in
  (* Flooding below the NIC-closing threshold: closing the master
     primary's NIC would also cut off its ordering messages and end the
     attack. *)
  let behaviours id =
    [ Flood { targets = correct; flood = Below_threshold }; No_propagate; Silent backups ]
    @ if id = primary then [ Pace_to_delta 0.035 ] else []
  in
  { nodes = List.map (fun id -> (id, behaviours id)) faulty_nodes; broken_macs_for = [] }

let unfair_primary params ~client ~steps =
  node (master_primary params) [ Hold_client { client; steps } ]

(* The NIC-closing threshold admits [flood_threshold] invalid messages
   per monitoring period; a smart attacker floods just below it, a
   brute-force one well above. *)
let flood_rate flood =
  let per_period = float_of_int Params.flood_threshold in
  let period = Time.to_sec_f Params.monitoring_period in
  let factor = match flood with Aggressive -> 4.0 | Below_threshold -> 0.8 in
  factor *. per_period /. period

(* Every monitoring period, read the faulty node's own monitoring data
   and pace its master replica's PRE-PREPAREs so that the master/backup
   throughput ratio observed by correct nodes stays just above Δ — the
   paper's "limit value such that the ratio observed at the correct
   nodes is greater or equal than Δ". *)
let pace_to_delta cluster node adversary ~margin =
  let engine = Cluster.engine cluster and params = Cluster.params cluster in
  let cap = ref 0.0 and prev_backup = ref 0.0 in
  adversary.Pbftcore.Replica.pp_rate_limit <- (fun () -> !cap);
  let rec loop () =
    ignore
      (Engine.after engine Params.monitoring_period (fun () ->
           (* The faulty node reads its own monitoring module — the
              same data correct nodes use for the Δ test. The cap is
              one window stale, so a smart attacker only throttles
              while the backup rate is stable: throttling against a
              rising rate would push the observed ratio under Δ and
              get it evicted. *)
           (match Monitoring.latest (Node.monitoring node) with
            | Some (_, rates) ->
              let backup_rate = Monitoring.backup_mean ~master:Params.master_instance rates in
              let stable =
                !prev_backup > 0.0
                && Float.abs (backup_rate -. !prev_backup) /. !prev_backup <= 0.05
              in
              prev_backup := backup_rate;
              let target = (params.Params.delta +. margin) *. backup_rate in
              cap := if stable && target > 0.0 then target else 0.0
            | None -> ());
           loop ()))
  in
  loop ()

let hold_after steps ordered =
  List.fold_left (fun held (after, hold) -> if ordered >= after then hold else held)
    Time.zero steps

let install cluster plan =
  Bftmetrics.Probe.declare_faulty (Cluster.probe cluster) (faulty plan);
  if plan.broken_macs_for <> [] then
    Array.iter
      (fun c -> (Client.behaviour c).Client.mac_invalid_for <- plan.broken_macs_for)
      (Cluster.clients cluster);
  List.iter
    (fun (id, behaviours) ->
      let node = Cluster.node cluster id in
      let faults = Node.faults node in
      let adversary instance = Pbftcore.Replica.adversary (Node.replica node ~instance) in
      let master = Node.replica node ~instance:Params.master_instance in
      let adv = Pbftcore.Replica.adversary master in
      List.iter
        (function
          | Flood { targets; flood } ->
            faults.Node.flood_targets <- targets;
            faults.Node.flood_rate <- flood_rate flood
          | No_propagate -> faults.Node.no_propagate <- true
          | Drop_client_requests -> faults.Node.drop_client_requests <- true
          | Silent instances ->
            List.iter (fun i -> (adversary i).Pbftcore.Replica.silent <- true) instances
          | Delay_pre_prepares delay -> adv.Pbftcore.Replica.pp_extra_delay <- (fun () -> delay)
          | Throttle_pre_prepares rate -> adv.Pbftcore.Replica.pp_rate_limit <- (fun () -> rate)
          | Pace_to_delta margin -> pace_to_delta cluster node adv ~margin
          | Hold_client { client; steps } ->
            adv.Pbftcore.Replica.client_hold <-
              (fun id ->
                if id.Pbftcore.Types.client <> client then Time.zero
                else hold_after steps (Pbftcore.Replica.ordered_count master)))
        behaviours)
    plan.nodes

let worst_attack_1 cluster = install cluster (worst1 (Cluster.params cluster))
let worst_attack_2 cluster = install cluster (worst2 (Cluster.params cluster))
