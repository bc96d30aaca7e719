open Dessim
open Bftcrypto
open Bftnet
open Pbftcore.Types
module Node_core = Pbftcore.Node_core
module Idset = Pbftcore.Idset
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
let body_copy_factor = 6.0

type faults = { mutable track_required : bool; mutable attack_margin : float }

type t = {
  core : msg Node_core.t;
  cfg : config;
  verification : Resource.t;
  ordering : Resource.t;
  execution : Resource.t;
  mutable replica : Pbftcore.Replica.t option;
  policy : Policy.t;
  faults : faults;
  sig_checked : Idset.t;
  mutable started : bool;
}

let id t = t.core.id
let faults t = t.faults
let replica t = match t.replica with Some r -> r | None -> assert false
let policy t = t.policy
let ledger t = t.core.ledger
let view_changes t = Pbftcore.Replica.view_changes_completed (replica t)
let set_clock_factor t = Node_core.set_clock_factor t.core
let set_cpu_factor t = Node_core.set_cpu_factor t.core

let request_size ~n (desc : request_desc) =
  16 + desc.op_size + Keys.signature_size + (n * Keys.mac_tag_size)

let msg_size ~n m =
  match m with
  | Request { desc; _ } -> request_size ~n desc
  | Order om -> 16 + Pbftcore.Messages.wire_size ~n ~order_full_requests:true om
  | Reply { result; _ } -> 16 + String.length result + Keys.mac_tag_size

(* The prototype this baseline models copies full request bodies
   several times along the ordering path (assembly, log insertion,
   per-destination buffers). [cost_bytes] inflates the CPU accounting
   of PRE-PREPAREs, which carry the bodies, accordingly — the wire
   size is unaffected. *)
let cost_bytes m ~size =
  match m with
  | Order (Pbftcore.Messages.Pre_prepare _) ->
    int_of_float (float_of_int size *. body_copy_factor)
  | Order _ | Request _ | Reply _ -> size

let make_replica t =
  let cfg =
    {
      (Pbftcore.Replica.default_config ~n:t.core.n ~f:t.cfg.f ~replica_id:t.core.id) with
      Pbftcore.Replica.batch_size;
      batch_delay;
      order_full_requests = true;
      post_vc_quiet = t.cfg.post_vc_quiet;
    }
  in
  let broadcast m = Node_core.broadcast t.core t.ordering (Order m) in
  let deliver _seq descs =
    Policy.note_ordered t.policy ~count:(List.length descs);
    List.iter
      (fun (desc : request_desc) ->
        let parent =
          if Probe.spans t.core.probe then
            Pbftcore.Replica.take_span (replica t) ~id:desc.id
          else -1
        in
        Node_core.submit_execution t.core t.execution ~parent desc)
      descs
  in
  let on_view_change _v = Policy.on_view_start t.policy ~now:(Engine.now t.core.engine) in
  Pbftcore.Replica.create ~probe:t.core.probe ~clock:t.core.clock t.core.engine cfg
    { Pbftcore.Replica.broadcast; deliver; on_view_change }

let submit_for_ordering t ~span (desc : request_desc) =
  let dspan =
    Probe.job t.core.probe ~parent:span ~tag:Bftmetrics.Tag.Dispatch ~node:t.core.id
      ~instance:0 ~now:(Engine.now t.core.engine)
  in
  Resource.submit ~span:dspan t.ordering ~cost:(Time.ns 200) (fun () ->
      Pbftcore.Replica.submit ~span:dspan (replica t) desc)

let handle_request t ~span (desc : request_desc) ~sig_valid =
  if Node_core.resend_reply t.core t.execution desc.id then ()
  else if Idset.mem t.sig_checked desc.id then submit_for_ordering t ~span desc
  else begin
    if Probe.audit t.core.probe then
      Node_core.audit t.core ~instance:0
        (Bftmetrics.Event.Request_received
           { client = desc.id.client; rid = desc.id.rid; size = desc.op_size });
    Resource.charge t.verification
      (Costmodel.sig_verify t.core.probe ~bytes:desc.op_size);
    if sig_valid then begin
      Idset.add t.sig_checked desc.id;
      submit_for_ordering t ~span desc
    end
  end

let on_delivery t ~from ~recv ~verify (d : msg Network.delivery) =
  let base = Time.add recv verify in
  match d.Network.payload with
  | Request { desc; sig_valid } ->
    let vspan =
      Probe.job t.core.probe ~parent:d.Network.span ~tag:Bftmetrics.Tag.Crypto_verify
        ~node:t.core.id ~instance:0 ~now:(Engine.now t.core.engine)
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
    Policy.tick t.policy ~now:(Engine.now t.core.engine)
      ~pending:(Pbftcore.Replica.pending_count r)
  in
  update_attack_delay t;
  match verdict with
  | Policy.Demand_view_change when not (Pbftcore.Replica.in_view_change r) ->
    Pbftcore.Replica.force_view_change r
  | Policy.Demand_view_change | Policy.Ok -> ()

let rec arm_monitoring t =
  ignore
    (Clock.after t.core.clock monitoring_period (fun () ->
         Resource.submit t.ordering ~cost:(Time.us 2) (fun () -> monitoring_tick t);
         arm_monitoring t))

let create engine net cfg ~id ~service =
  let n = (3 * cfg.f) + 1 in
  let core =
    Node_core.create engine net ~id ~n ~service ~name:(Printf.sprintf "av%d" id)
      ~size:(msg_size ~n) ~cost_bytes ~scheme:Node_core.Mac ~authenticate_replies:true
      ~node_only:(function Order _ -> true | Request _ | Reply _ -> false)
      ~reply:(fun id result -> Reply { id; result })
  in
  let t =
    {
      core;
      cfg;
      verification = Node_core.thread core "verification";
      ordering = Node_core.thread core "ordering";
      execution = Node_core.thread core "execution";
      replica = None;
      policy = Policy.create ~n cfg.policy;
      faults = { track_required = false; attack_margin = 1.10 };
      sig_checked = Idset.create ();
      started = false;
    }
  in
  t.replica <- Some (make_replica t);
  (* A failed authenticator, or ordering traffic from a client, pays
     its verification, then is dropped. *)
  Node_core.listen core ~forged_on:t.verification (on_delivery t);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Policy.on_view_start t.policy ~now:(Engine.now t.core.engine);
    arm_monitoring t
  end
