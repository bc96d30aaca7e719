open Bftapp

include Pbftcore.Cluster_core.Make (struct
  type config = Params.t
  type msg = Messages.t
  type t = Node.t
  type client = Client.t

  let n = Params.n
  let transport = Bftnet.Network.Tcp
  let create = Node.create

  let create_client engine net params ~id ~payload_size =
    Client.create engine net params ~id ~payload_size ()

  let start = Node.start
  let id = Node.id
  let ledger = Node.ledger

  (* In redundant mode only the master instance executes, so only its
     state transfers matter; in concurrent mode every instance feeds
     the merge. *)
  let skips_agreement node =
    let transferred i =
      Pbftcore.Replica.state_transfers (Node.replica node ~instance:i) <> 0
    in
    match Node.ordering node with
    | Params.Redundant -> transferred (Node.master_instance node)
    | Params.Concurrent ->
      List.exists transferred (List.init (Params.instances (Node.params node)) Fun.id)
end)

let params = config

let create ?(probe = Bftmetrics.Probe.default) ?(seed = 42L)
    ?(transport = Bftnet.Network.Tcp) ?net_config
    ?(service = fun () -> Null_service.create ()) ?clients:(n_clients = 0)
    ?(payload_size = 8) params =
  let net_config =
    match net_config with
    | Some cfg -> cfg
    | None -> { (Bftnet.Network.default_config ~nodes:(Params.n params)) with transport }
  in
  let t = assemble ~probe ~seed ~net_config ~service ~clients:n_clients ~payload_size params in
  let engine = engine t in
  let reg = Bftmetrics.Probe.registry probe in
  (* Engine-level gauges are callback-backed: read only at sample or
     export time, and re-registering rebinds them to the newest
     cluster's engine. *)
  Bftmetrics.Registry.gauge_fn reg "dessim_events_processed"
    ~help:"Events processed by the simulation engine" ~labels:[]
    (fun () -> float_of_int (Dessim.Engine.events_processed engine));
  Bftmetrics.Registry.gauge_fn reg "dessim_queue_size"
    ~help:"Pending events in the simulation engine queue" ~labels:[]
    (fun () -> float_of_int (Dessim.Engine.queue_size engine));
  (* Cluster-level footprints: the engine's event heap and the
     population's aggregate reply-collection tables. Entries-only (no
     deep root) — both are spread across structures the per-node
     probes already cover or the engine owns privately. *)
  ignore
    (Bftmetrics.Probe.footprint probe ~owner:"cluster" ~name:"engine.queue"
       ~entries:(fun () -> Dessim.Engine.queue_size engine)
       ~root:(fun () -> None)
       ());
  let clients = clients t in
  ignore
    (Bftmetrics.Probe.footprint probe ~owner:"cluster" ~name:"clients.pending"
       ~entries:(fun () ->
         Array.fold_left (fun acc c -> acc + Client.pending_count c) 0 clients)
       ~root:(fun () -> None)
       ());
  t

(* Incident-bundle hooks: a stable textual identity for the run
   (recorded once at doctor attach) and the node currently acting as
   master primary (re-read at dump time, after any instance change). *)
let describe t =
  let params = params t in
  [
    ("protocol", "rbft");
    ("ordering", Params.ordering_name params.Params.ordering);
    ("n", string_of_int (Params.n params));
    ("f", string_of_int params.Params.f);
    ("instances", string_of_int (Params.instances params));
    ("clients", string_of_int (Array.length (clients t)));
    ("seed", Int64.to_string (seed t));
    ( "transport",
      match (Bftnet.Network.config (network t)).Bftnet.Network.transport with
      | Bftnet.Network.Tcp -> "tcp"
      | Udp -> "udp" );
  ]

let master_primary t =
  let node0 = node t 0 in
  let mi = Node.master_instance node0 in
  let view = Pbftcore.Replica.view (Node.replica node0 ~instance:mi) in
  Params.primary_of (params t) ~instance:mi ~view

let drain t ~limit =
  let open Dessim in
  let clients = clients t in
  Array.iter (fun c -> Client.set_rate c 0.0) clients;
  let engine = engine t in
  let stop = Time.add (Engine.now engine) limit in
  let pending () = Array.fold_left (fun acc c -> acc + Client.pending_count c) 0 clients in
  while pending () > 0 && Engine.now engine < stop do
    Engine.run ~until:(Time.min stop (Time.add (Engine.now engine) (Time.ms 50))) engine
  done;
  pending ()
