open Dessim
open Bftcrypto
open Bftnet
open Bftapp
open Pbftcore.Types
module Probe = Bftmetrics.Probe

type msg =
  | Request of { desc : request_desc; sig_valid : bool }
  | Order of Pbftcore.Messages.t
  | Reply of { id : request_id; result : string }

type config = { f : int; policy : Policy.config; post_vc_quiet : Time.t }

let default_config ~f = { f; policy = Policy.default_config; post_vc_quiet = Time.ms 400 }

let simulation_config ~f =
  {
    f;
    policy = { Policy.grace = Time.of_sec_f 1.2; view_warmup = Time.ms 500 };
    post_vc_quiet = Time.ms 120;
  }

let monitoring_period = Time.ms 100
let batch_size = 64
let batch_delay = Time.ms 1
let exec_cost = Time.us 1
let body_copy_factor = 6.0

type faults = { mutable track_required : bool; mutable attack_margin : float }

type t = {
  engine : Engine.t;
  clock : Clock.t;  (* local periodic timers; skewable by the chaos engine *)
  net : msg Network.t;
  probe : Probe.t;
  cfg : config;
  id : int;
  service : Service.t;
  verification : Resource.t;
  ordering : Resource.t;
  execution : Resource.t;
  mutable replica : Pbftcore.Replica.t option;
  policy : Policy.t;
  faults : faults;
  sig_checked : unit Request_id_table.t;
  executed : string Request_id_table.t;
  ledger : Pbftcore.Ledger.t;
  mutable started : bool;
}

let id t = t.id
let faults t = t.faults
let replica t = match t.replica with Some r -> r | None -> assert false
let policy t = t.policy
let ledger t = t.ledger
let executed_count t = Pbftcore.Ledger.count t.ledger
let executed_counter t = Pbftcore.Ledger.counter t.ledger
let execution_digest t = Pbftcore.Ledger.digest t.ledger
let view_changes t = Pbftcore.Replica.view_changes_completed (replica t)

let set_clock_factor t k = Clock.set_factor t.clock k

let set_cpu_factor t s =
  List.iter (fun r -> Resource.set_speed r s) [ t.verification; t.ordering; t.execution ]

let n_nodes t = (3 * t.cfg.f) + 1

let request_size ~n (desc : request_desc) =
  16 + desc.op_size + Keys.signature_size + (n * Keys.mac_tag_size)

let msg_size t m =
  match m with
  | Request { desc; _ } -> request_size ~n:(n_nodes t) desc
  | Order om ->
    16 + Pbftcore.Messages.wire_size ~n:(n_nodes t) ~order_full_requests:true om
  | Reply { result; _ } -> 16 + String.length result + Keys.mac_tag_size

(* The prototype this baseline models copies full request bodies
   several times along the ordering path (assembly, log insertion,
   per-destination buffers). [cost_bytes] inflates the CPU accounting
   of PRE-PREPAREs, which carry the bodies, accordingly — the wire
   size is unaffected. *)
let cost_bytes t m =
  let size = msg_size t m in
  match m with
  | Order (Pbftcore.Messages.Pre_prepare _) ->
    int_of_float (float_of_int size *. body_copy_factor)
  | Order _ | Request _ | Reply _ -> size

let send_from ?(span = -1) ?span_tag t thread ~dst m =
  let size = msg_size t m in
  Resource.charge thread (Costmodel.send ~bytes:(cost_bytes t m));
  Network.send ~span ?span_tag t.net ~src:(Principal.node t.id) ~dst ~size m

let broadcast_nodes t thread m =
  let size = msg_size t m in
  Resource.charge thread
    (Costmodel.authenticator_gen t.probe ~bytes:size ~count:(n_nodes t));
  for dst = 0 to n_nodes t - 1 do
    if dst <> t.id then begin
      Resource.charge thread (Costmodel.send ~bytes:(cost_bytes t m));
      Network.send t.net ~src:(Principal.node t.id) ~dst:(Principal.node dst) ~size m
    end
  done

let reply_to ?(span = -1) t (id : request_id) result =
  send_from ~span ~span_tag:Bftspan.Tag.Reply t t.execution
    ~dst:(Principal.client id.client)
    (Reply { id; result })

(* Single-instance protocol: every audit event is instance 0; the
   ordering-phase events come from the shared Pbftcore.Replica. *)
let audit t kind =
  Probe.emit t.probe
    { Bftmetrics.Event.time = Engine.now t.engine; node = t.id; instance = 0; kind }

let execute_batch t descs =
  List.iter
    (fun (desc : request_desc) ->
      if not (Request_id_table.mem t.executed desc.id) then begin
        let cost =
          Time.max exec_cost (t.service.Service.exec_cost desc.op)
        in
        let ospan =
          if Probe.spans t.probe then
            Pbftcore.Replica.take_span (replica t) ~id:desc.id
          else -1
        in
        let espan =
          Probe.job t.probe ~parent:ospan ~tag:Bftspan.Tag.Execution ~node:t.id
            ~instance:0 ~now:(Engine.now t.engine)
        in
        Resource.submit ~span:espan t.execution ~cost (fun () ->
            if not (Request_id_table.mem t.executed desc.id) then begin
              let result = t.service.Service.execute desc.op in
              Request_id_table.replace t.executed desc.id result;
              Pbftcore.Ledger.execute t.ledger ~now:(Engine.now t.engine) ~node:t.id
                ~instance:0 desc;
              Resource.charge t.execution
                (Costmodel.mac_gen t.probe ~bytes:(String.length result + 16));
              reply_to ~span:espan t desc.id result
            end)
      end)
    descs

let make_replica t =
  let cfg =
    {
      (Pbftcore.Replica.default_config ~n:(n_nodes t) ~f:t.cfg.f ~replica_id:t.id) with
      Pbftcore.Replica.batch_size;
      batch_delay;
      order_full_requests = true;
      post_vc_quiet = t.cfg.post_vc_quiet;
    }
  in
  let send dst m = send_from t t.ordering ~dst:(Principal.node dst) (Order m) in
  let broadcast m = broadcast_nodes t t.ordering (Order m) in
  let deliver _seq descs =
    Policy.note_ordered t.policy ~count:(List.length descs);
    execute_batch t descs
  in
  let on_view_change _v = Policy.on_view_start t.policy ~now:(Engine.now t.engine) in
  Pbftcore.Replica.create ~probe:t.probe ~clock:t.clock t.engine cfg
    { Pbftcore.Replica.send; broadcast; deliver; on_view_change }

let submit_for_ordering t ~span (desc : request_desc) =
  let dspan =
    Probe.job t.probe ~parent:span ~tag:Bftspan.Tag.Dispatch ~node:t.id ~instance:0
      ~now:(Engine.now t.engine)
  in
  Resource.submit ~span:dspan t.ordering ~cost:(Time.ns 200) (fun () ->
      Pbftcore.Replica.submit ~span:dspan (replica t) desc)

let handle_request t ~span (desc : request_desc) ~sig_valid =
  match Request_id_table.find_opt t.executed desc.id with
  | Some result -> reply_to t desc.id result
  | None when Request_id_table.mem t.sig_checked desc.id ->
    submit_for_ordering t ~span desc
  | None ->
    if Probe.audit t.probe then
      audit t
        (Bftmetrics.Event.Request_received
           { client = desc.id.client; rid = desc.id.rid; size = desc.op_size });
    Resource.charge t.verification
      (Costmodel.sig_verify t.probe ~bytes:desc.op_size);
    if sig_valid then begin
      Request_id_table.replace t.sig_checked desc.id ();
      submit_for_ordering t ~span desc
    end

let on_delivery t (d : msg Network.delivery) =
  let bytes = cost_bytes t d.Network.payload in
  let base =
    Time.add
      (Costmodel.recv ~bytes)
      (Costmodel.mac_verify t.probe ~bytes:d.Network.size)
  in
  let from = Network.src_node d in
  let authentic =
    (not d.Network.corrupted)
    && match d.Network.payload with Order _ -> from >= 0 | Request _ | Reply _ -> true
  in
  if not authentic then
    (* Failed authenticator, or ordering traffic from a client: pay the
       verification cost, then drop. *)
    Resource.submit t.verification ~cost:base (fun () -> ())
  else
  match d.Network.payload with
  | Request { desc; sig_valid } ->
    let vspan =
      Probe.job t.probe ~parent:d.Network.span ~tag:Bftspan.Tag.Crypto_verify ~node:t.id
        ~instance:0 ~now:(Engine.now t.engine)
    in
    Resource.submit ~span:vspan t.verification ~cost:base (fun () ->
        handle_request t ~span:vspan desc ~sig_valid)
  | Order m ->
    Resource.submit t.ordering ~cost:base (fun () ->
        Pbftcore.Replica.receive (replica t) ~from m)
  | Reply _ -> ()

(* The Figure 2 adversary: when this node is the primary, it caps its
   ordering rate just above the (known, because the faulty node runs
   the same policy) requirement. *)
let update_attack_delay t =
  let r = replica t in
  let adversary = Pbftcore.Replica.adversary r in
  if t.faults.track_required && Pbftcore.Replica.is_primary r then begin
    let required = Policy.required_rate t.policy in
    let target = required *. t.faults.attack_margin in
    adversary.Pbftcore.Replica.pp_rate_limit <- (fun () -> target)
  end
  else adversary.Pbftcore.Replica.pp_rate_limit <- (fun () -> 0.0)

let monitoring_tick t =
  let r = replica t in
  let verdict =
    Policy.tick t.policy ~now:(Engine.now t.engine)
      ~pending:(Pbftcore.Replica.pending_count r)
  in
  update_attack_delay t;
  match verdict with
  | Policy.Demand_view_change when not (Pbftcore.Replica.in_view_change r) ->
    Pbftcore.Replica.force_view_change r
  | Policy.Demand_view_change | Policy.Ok -> ()

let rec arm_monitoring t =
  ignore
    (Clock.after t.clock monitoring_period (fun () ->
         Resource.submit t.ordering ~cost:(Time.us 2) (fun () -> monitoring_tick t);
         arm_monitoring t))

let create engine net cfg ~id ~service =
  let mk name = Resource.create engine ~name:(Printf.sprintf "av%d.%s" id name) in
  let t =
    {
      engine;
      clock = Clock.create engine;
      net;
      probe = Network.probe net;
      cfg;
      id;
      service;
      verification = mk "verification";
      ordering = mk "ordering";
      execution = mk "execution";
      replica = None;
      policy = Policy.create ~n:((3 * cfg.f) + 1) cfg.policy;
      faults = { track_required = false; attack_margin = 1.10 };
      sig_checked = Request_id_table.create 4096;
      executed = Request_id_table.create 4096;
      ledger = Pbftcore.Ledger.create (Network.probe net);
      started = false;
    }
  in
  t.replica <- Some (make_replica t);
  Network.register_node net id (fun d -> on_delivery t d);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Policy.on_view_start t.policy ~now:(Engine.now t.engine);
    arm_monitoring t
  end
