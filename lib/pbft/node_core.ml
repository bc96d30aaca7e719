(* The node shell all four stacks share. See node_core.mli. *)

open Dessim
open Bftcrypto
open Bftnet
open Types
module Probe = Bftmetrics.Probe

let exec_cost = Time.us 1

type scheme = Mac | Signature

type 'msg t = {
  engine : Engine.t;
  clock : Clock.t;  (* local timers; skewable by the chaos engine *)
  net : 'msg Network.t;
  probe : Probe.t;
  id : int;
  n : int;
  service : Bftapp.Service.t;
  ledger : Ledger.t;
  executed : Replycache.t;  (* executed rids and the last results per client *)
  name : string;
  mutable threads : Resource.t list;
  (* The stack's messages: sizing, authentication and the REPLY. *)
  size : 'msg -> int;
  cost_bytes : 'msg -> size:int -> int;
  scheme : scheme;
  authenticate_replies : bool;
  node_only : 'msg -> bool;
  reply_msg : request_id -> string -> 'msg;
  (* Principals built once: a send allocates no source or destination. *)
  self : Principal.t;
  nodes : Principal.t array;
}

let create engine net ~id ~n ~service ~name ~size ~cost_bytes ~scheme
    ~authenticate_replies ~node_only ~reply =
  let probe = Network.probe net in
  {
    engine;
    clock = Clock.create engine;
    net;
    probe;
    id;
    n;
    service;
    ledger = Ledger.create probe;
    executed = Replycache.create ();
    name;
    threads = [];
    size;
    cost_bytes;
    scheme;
    authenticate_replies;
    node_only;
    reply_msg = reply;
    self = Principal.node id;
    nodes = Array.init n Principal.node;
  }

let thread t name =
  let r = Resource.create t.engine ~name:(Printf.sprintf "%s.%s" t.name name) in
  t.threads <- t.threads @ [ r ];
  r

let set_clock_factor t k = Clock.set_factor t.clock k
let set_cpu_factor t s = List.iter (fun r -> Resource.set_speed r s) t.threads

let audit t ~instance kind =
  Probe.emit_at t.probe (Engine.now t.engine) ~node:t.id ~instance kind

(* ------------------------------------------------------------------ *)
(* Outbound                                                           *)
(* ------------------------------------------------------------------ *)

(* One MAC or one signature over [bytes]. *)
let sign t ~bytes =
  match t.scheme with
  | Mac -> Costmodel.mac_gen t.probe ~bytes
  | Signature -> Costmodel.sig_sign t.probe ~bytes

(* Charge [thread] the send cost, then send. A traced message
   ([span] >= 0) records its transit under [tag]. *)
let transmit t thread ~span ~tag ~dst m =
  let size = t.size m in
  Resource.charge thread (Costmodel.send ~bytes:(t.cost_bytes m ~size));
  if span < 0 then Network.send t.net ~src:t.self ~dst ~size m
  else Network.send ~span ~span_tag:tag t.net ~src:t.self ~dst ~size m

let send t thread ~dst m = transmit t thread ~span:(-1) ~tag:Bftmetrics.Tag.Net_transit ~dst m

let broadcast ?(span = -1) t thread m =
  let size = t.size m in
  Resource.charge thread
    (match t.scheme with
     | Mac -> Costmodel.authenticator_gen t.probe ~bytes:size ~count:t.n
     | Signature -> Costmodel.sig_sign t.probe ~bytes:size);
  let send_cost = Costmodel.send ~bytes:(t.cost_bytes m ~size) in
  for dst = 0 to t.n - 1 do
    if dst <> t.id then begin
      Resource.charge thread send_cost;
      if span < 0 then Network.send t.net ~src:t.self ~dst:t.nodes.(dst) ~size m
      else Network.send ~span t.net ~src:t.self ~dst:t.nodes.(dst) ~size m
    end
  done

(* ------------------------------------------------------------------ *)
(* Inbound                                                            *)
(* ------------------------------------------------------------------ *)

let listen t ~forged_on ?(on_forged = ignore) handle =
  Network.register_node t.net t.id (fun d ->
      let m = d.Network.payload in
      let recv = Costmodel.recv ~bytes:(t.cost_bytes m ~size:(t.size m)) in
      let verify =
        match t.scheme with
        | Mac -> Costmodel.mac_verify t.probe ~bytes:d.Network.size
        | Signature -> Costmodel.sig_verify t.probe ~bytes:d.Network.size
      in
      let from = Network.src_node d in
      if d.Network.corrupted || (from < 0 && t.node_only m) then
        Resource.submit forged_on ~cost:(Time.add recv verify) (fun () -> on_forged from)
      else handle ~from ~recv ~verify d)

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

let has_executed t (id : request_id) =
  Replycache.seen t.executed ~client:id.client ~rid:id.rid

let resend_reply t thread (id : request_id) =
  has_executed t id
  && begin
       (match Replycache.find t.executed ~client:id.client ~rid:id.rid with
        | Some result ->
          send t thread ~dst:(Principal.client id.client) (t.reply_msg id result)
        | None -> ());
       true
     end

let exec_cost_of t (desc : request_desc) =
  Time.max exec_cost (t.service.Bftapp.Service.exec_cost desc.op)

let apply t ~instance (desc : request_desc) =
  let result = t.service.Bftapp.Service.execute desc.op in
  Replycache.mark t.executed ~client:desc.id.client ~rid:desc.id.rid ~result;
  Ledger.execute t.ledger ~now:(Engine.now t.engine) ~node:t.id ~instance desc;
  result

let reply t thread ~span (id : request_id) result =
  if t.authenticate_replies then
    Resource.charge thread (sign t ~bytes:(String.length result + 16));
  transmit t thread ~span ~tag:Bftmetrics.Tag.Reply ~dst:(Principal.client id.client)
    (t.reply_msg id result)

let execute t thread ~span (desc : request_desc) =
  reply t thread ~span desc.id (apply t ~instance:0 desc)

let submit_execution t thread ~parent (desc : request_desc) =
  if not (has_executed t desc.id) then begin
    let espan =
      Probe.job t.probe ~parent ~tag:Bftmetrics.Tag.Execution ~node:t.id ~instance:0
        ~now:(Engine.now t.engine)
    in
    Resource.submit ~span:espan thread ~cost:(exec_cost_of t desc) (fun () ->
        if not (has_executed t desc.id) then execute t thread ~span:espan desc)
  end
