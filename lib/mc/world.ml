open Dessim
open Pbftcore.Types

type config = {
  f : int;
  requests : int;
  crashes : int list;
  mutate : bool;
  depth : int;
  slice : Time.t;
  drain : Time.t;
  lambda : Time.t;
  seed : int64;
}

let default_config =
  {
    f = 1;
    requests = 2;
    crashes = [];
    mutate = false;
    depth = 6;
    slice = Time.us 100;
    drain = Time.ms 300;
    lambda = Time.us 300;
    seed = 1L;
  }

type t = {
  cfg : config;
  cluster : Rbft.Cluster.t;
  engine : Engine.t;
  auditor : Bftaudit.Auditor.t;
  liveness : Bftaudit.Liveness.t;
  injector : Bftchaos.Injector.t;
  mutable horizon : Time.t;  (* clock after the last completed slice *)
  mutable fired : int list;  (* choice ids fired so far, newest first *)
  mutable drained : bool;
}

let hex8 s =
  if s = "" then "-"
  else
    let h = Bftcrypto.Sha256.to_hex s in
    if String.length h > 8 then String.sub h 0 8 else h

(* Content-based delivery labels: enough to identify the message in a
   counterexample listing and to distinguish deliveries in state
   fingerprints, with no timestamps or other schedule-dependent data.
   The sender is not part of the label: the delivery's [src] already
   sits next to it in both places. *)
let describe (m : Rbft.Messages.t) =
  match m with
  | Rbft.Messages.Request r ->
    Printf.sprintf "req:c%d.%d" r.Rbft.Messages.desc.id.client
      r.Rbft.Messages.desc.id.rid
  | Rbft.Messages.Propagate { req; junk } ->
    Printf.sprintf "prop:c%d.%d%s" req.Rbft.Messages.desc.id.client
      req.Rbft.Messages.desc.id.rid
      (if junk then "!" else "")
  | Rbft.Messages.Propagate_batch { reqs; owner } ->
    (* Not reachable in checked configurations (the checker runs the
       redundant ordering only), but labelled for completeness. *)
    Printf.sprintf "propb:i%d.%d" owner (List.length reqs)
  | Rbft.Messages.Instance { instance; msg } ->
    let detail =
      match msg with
      | Pbftcore.Messages.Pre_prepare { view; seq; descs } ->
        Printf.sprintf "pp.v%d.s%d.%d" view seq (List.length descs)
      | Pbftcore.Messages.Prepare { view; seq; digest } ->
        Printf.sprintf "p.v%d.s%d.%s" view seq (hex8 digest)
      | Pbftcore.Messages.Commit { view; seq; digest } ->
        Printf.sprintf "c.v%d.s%d.%s" view seq (hex8 digest)
      | Pbftcore.Messages.Checkpoint { seq; state_digest } ->
        Printf.sprintf "ck.s%d.%s" seq (hex8 state_digest)
      | Pbftcore.Messages.View_change { new_view; _ } -> Printf.sprintf "vc.v%d" new_view
      | Pbftcore.Messages.New_view { view; _ } -> Printf.sprintf "nv.v%d" view
    in
    Printf.sprintf "i%d.%s" instance detail
  | Rbft.Messages.Instance_change { cpi } -> Printf.sprintf "ic:%d" cpi
  | Rbft.Messages.Reply { id; _ } -> Printf.sprintf "rep:c%d.%d" id.client id.rid
  | Rbft.Messages.Busy { id; _ } ->
    (* Not reachable in checked configurations (admission is off by
       default), but labelled for completeness. *)
    Printf.sprintf "busy:c%d.%d" id.client id.rid

let correct_nodes cfg =
  let n = (3 * cfg.f) + 1 in
  List.filter
    (fun i -> not (List.mem i cfg.crashes))
    (List.init n (fun i -> i))

let create cfg =
  let probe = Bftmetrics.Probe.create () in
  let n = (3 * cfg.f) + 1 in
  let auditor =
    Bftaudit.Auditor.attach ~probe ~raise_on_violation:false ~n ~f:cfg.f ()
  in
  let liveness = Bftaudit.Liveness.attach probe in
  let params =
    {
      (Rbft.Params.default ~f:cfg.f) with
      Rbft.Params.lambda = cfg.lambda;
      (* Tiny batch delay so a whole ordering round fits in a few
         slices; λ above is measured against slice-quantised time. *)
      batch_delay = Time.us 10;
      ic_quorum = (if cfg.mutate then Some 1 else None);
    }
  in
  (* Zero jitter: the only per-send randomness in the network. With it
     gone, a replayed schedule prefix reconstructs the exact engine
     state, and commuted independent deliveries meet in bit-identical
     states — both load-bearing for dedup and POR soundness. *)
  let net_config =
    {
      (Bftnet.Network.default_config ~nodes:n) with
      Bftnet.Network.jitter = Time.zero;
    }
  in
  let cluster =
    Rbft.Cluster.create ~probe ~seed:cfg.seed ~net_config ~clients:1 params
  in
  let engine = Rbft.Cluster.engine cluster in
  let net = Rbft.Cluster.network cluster in
  Bftnet.Network.set_describe net (Some describe);
  Engine.set_choice_capture engine true;
  let hooks =
    {
      Bftchaos.Injector.engine;
      probe;
      n;
      set_fault_hook = Bftnet.Network.set_fault_hook net;
      set_cpu_factor =
        (fun ~node k ->
          Rbft.Node.set_cpu_factor (Rbft.Cluster.node cluster node) k);
      set_clock_factor =
        (fun ~node k ->
          Rbft.Node.set_clock_factor (Rbft.Cluster.node cluster node) k);
    }
  in
  (* Whole-run crashes only: the liveness rules assume a crashed node
     stays down (no retransmission exists to recover from a partial
     outage without timestamp freedom). *)
  let plan =
    List.map
      (fun node ->
        {
          Bftchaos.Fault.at = Time.zero;
          until = Time.sec 3600;
          kind = Bftchaos.Fault.Crash { node };
        })
      cfg.crashes
  in
  let injector = Bftchaos.Injector.install hooks ~seed:cfg.seed plan in
  (* The crash activations are plain t=0 engine events while the client
     burst below sends synchronously: run a hair of virtual time first
     so no request slips past a from-the-start crash. *)
  Engine.run ~until:(Time.add (Engine.now engine) (Time.ns 1)) engine;
  if cfg.requests > 0 then
    Rbft.Client.send_burst (Rbft.Cluster.client cluster 0) ~count:cfg.requests;
  let t =
    {
      cfg;
      cluster;
      engine;
      auditor;
      liveness;
      injector;
      horizon = Time.add (Engine.now engine) cfg.slice;
      fired = [];
      drained = false;
    }
  in
  (* Slice 0: sender-side NIC serialization of the burst runs and the
     initial deliveries park as choices. *)
  Engine.run ~until:t.horizon engine;
  t

let destroy t =
  Bftaudit.Auditor.detach t.auditor;
  Bftaudit.Liveness.detach t.liveness;
  Engine.set_choice_capture t.engine false

let fired t = List.rev t.fired

let pending t = Engine.pending_choices t.engine

(* TCP delivers in FIFO order per connection, so of all parked
   deliveries on one (src, dst) channel only the oldest is actually
   schedulable; the rest become enabled as the head is consumed. The
   egress NIC is itself FIFO, so creation-id order on a channel is send
   order. *)
let enabled t =
  let best : (int * int, Engine.choice) Hashtbl.t = Hashtbl.create 32 in
  List.iter
    (fun (c : Engine.choice) ->
      let key = (c.Engine.src, c.Engine.dst) in
      match Hashtbl.find_opt best key with
      | Some (b : Engine.choice) when b.Engine.id <= c.Engine.id -> ()
      | Some _ | None -> Hashtbl.replace best key c)
    (pending t);
  Hashtbl.fold (fun _ c acc -> c :: acc) best []
  |> List.sort (fun (a : Engine.choice) b -> compare a.Engine.id b.Engine.id)

(* Fire one delivery, then advance exactly one slice. The slice horizon
   is a function of the step count alone — never of which choice fired
   — so two schedules that commute independent deliveries land on
   bit-identical states (clock included). *)
let step t (c : Engine.choice) =
  assert (not t.drained);
  let ok = Engine.fire_choice t.engine c.Engine.id in
  if not ok then
    invalid_arg
      (Printf.sprintf "World.step: choice %d not pending" c.Engine.id);
  t.fired <- c.Engine.id :: t.fired;
  t.horizon <- Time.add t.horizon t.cfg.slice;
  Engine.run ~until:t.horizon t.engine

let step_id t id =
  match
    List.find_opt (fun (c : Engine.choice) -> c.Engine.id = id) (pending t)
  with
  | Some c -> step t c
  | None -> invalid_arg (Printf.sprintf "World.step_id: choice %d not pending" id)

let depth t = List.length t.fired

let violations t = Bftaudit.Auditor.violations t.auditor

(* Chained digest over canonical per-node state plus the parked
   deliveries (channel-grouped, FIFO order within a channel, no ids or
   timestamps) and the depth. Depth matters because the search is
   bounded: the same protocol state reached nearer the root has more
   remaining exploration below it and must not be pruned by a deeper
   first visit. *)
let fingerprint t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf (Printf.sprintf "d%d;" (depth t));
  Array.iter
    (fun node ->
      let d = Bftcrypto.Sha256.digest_string (Rbft.Node.mc_fingerprint node) in
      Buffer.add_string buf d)
    (Rbft.Cluster.nodes t.cluster);
  pending t
  |> List.sort (fun (a : Engine.choice) (b : Engine.choice) ->
         compare
           (a.Engine.src, a.Engine.dst, a.Engine.id)
           (b.Engine.src, b.Engine.dst, b.Engine.id))
  |> List.iter (fun (c : Engine.choice) ->
         Buffer.add_string buf
           (Printf.sprintf "%d>%d:%s|" c.Engine.src c.Engine.dst c.Engine.label));
  Bftcrypto.Sha256.digest_string (Buffer.contents buf)

type verdict = {
  safety : Bftaudit.Auditor.violation list;
  liveness : Bftaudit.Liveness.problem list;
  agreement : bool;
}

let verdict_clean v = v.safety = [] && v.liveness = [] && v.agreement

(* End of a schedule: hand the parked deliveries back to timestamp
   order and drain, then judge. Liveness is only meaningful here — at
   quiescence every triggered instance change had its chance to
   complete. The world is spent afterwards. *)
let evaluate t =
  assert (not t.drained);
  t.drained <- true;
  Engine.set_choice_capture t.engine false;
  Engine.release_choices t.engine;
  Engine.run ~until:(Time.add (Engine.now t.engine) t.cfg.drain) t.engine;
  let safety = Bftaudit.Auditor.violations t.auditor in
  let liveness =
    Bftaudit.Liveness.check t.liveness
      ~quorum:((2 * t.cfg.f) + 1)
      ~correct:(correct_nodes t.cfg)
  in
  let agreement = Rbft.Cluster.agreement_ok t.cluster ~faulty:t.cfg.crashes in
  { safety; liveness; agreement }

(* Rebuild a world and re-fire a schedule prefix. Determinism of the
   engine (total heap order, fixed seed, zero jitter) guarantees the
   same choice ids reappear; a missing id means the substrate broke
   that promise, which is worth failing loudly over. *)
let replay cfg ids =
  let t = create cfg in
  List.iter (fun id -> step_id t id) ids;
  t
