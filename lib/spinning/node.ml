open Dessim
open Bftcrypto
open Bftnet
open Bftapp
open Pbftcore.Types
module Probe = Bftmetrics.Probe

type msg =
  | Request of { desc : request_desc }
  | Order of Replica.msg
  | Reply of { id : request_id; result : string }

type config = { f : int }

let default_config ~f = { f }
let bookkeeping = Time.us 12
let body_copy_factor = 2.0
let exec_cost = Time.us 1

type faults = { mutable delay_fraction : float }

type t = {
  engine : Engine.t;
  clock : Clock.t;  (* accusation timers; skewable by the chaos engine *)
  net : msg Network.t;
  probe : Probe.t;
  cfg : config;
  id : int;
  service : Service.t;
  ordering : Resource.t;
  execution : Resource.t;
  mutable replica : Replica.t option;
  faults : faults;
  executed : string Request_id_table.t;
  ledger : Pbftcore.Ledger.t;
}

let id t = t.id
let faults t = t.faults
let replica t = match t.replica with Some r -> r | None -> assert false
let ledger t = t.ledger
let executed_count t = Pbftcore.Ledger.count t.ledger
let executed_counter t = Pbftcore.Ledger.counter t.ledger
let execution_digest t = Pbftcore.Ledger.digest t.ledger

let set_clock_factor t k = Clock.set_factor t.clock k

let set_cpu_factor t s =
  List.iter (fun r -> Resource.set_speed r s) [ t.ordering; t.execution ]

let n_nodes t = (3 * t.cfg.f) + 1

let request_size ~n (desc : request_desc) = 16 + desc.op_size + (n * Keys.mac_tag_size)

let msg_size t m =
  let mac_auth = n_nodes t * Keys.mac_tag_size in
  match m with
  | Request { desc } -> request_size ~n:(n_nodes t) desc
  | Order (Replica.Pre_prepare { descs; _ }) ->
    (* Spinning's ordering messages carry the full requests. *)
    16 + List.fold_left (fun acc d -> acc + id_wire_size + d.op_size) 0 descs + mac_auth
  | Order (Replica.Prepare _ | Replica.Commit _) -> 16 + Sha256.size + mac_auth
  | Order (Replica.Accuse _) -> 16 + 8 + mac_auth
  | Reply { result; _ } -> 16 + String.length result + Keys.mac_tag_size

(* Ordering messages carry full request bodies; the prototype copies
   them through its buffers, which [cost_bytes] accounts for. *)
let cost_bytes t m =
  let size = msg_size t m in
  match m with
  | Order (Replica.Pre_prepare _) ->
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

let audit t kind =
  Probe.emit t.probe
    { Bftmetrics.Event.time = Engine.now t.engine; node = t.id; instance = 0; kind }

let execute_batch t descs =
  List.iter
    (fun (desc : request_desc) ->
      if not (Request_id_table.mem t.executed desc.id) then begin
        let cost = Time.max exec_cost (t.service.Service.exec_cost desc.op) in
        let ospan =
          if Probe.spans t.probe then Replica.take_span (replica t) ~id:desc.id
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
              send_from ~span:espan ~span_tag:Bftspan.Tag.Reply t t.execution
                ~dst:(Principal.client desc.id.client)
                (Reply { id = desc.id; result })
            end)
      end)
    descs

let make_replica t =
  let cfg = { Replica.n = n_nodes t; f = t.cfg.f; replica_id = t.id } in
  let broadcast m = broadcast_nodes t t.ordering (Order m) in
  let deliver _seq descs = execute_batch t descs in
  Replica.create ~probe:t.probe ~clock:t.clock t.engine cfg { Replica.broadcast; deliver }

let on_delivery t (d : msg Network.delivery) =
  let base =
    Time.add
      (Costmodel.recv ~bytes:(cost_bytes t d.Network.payload))
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
    Resource.submit t.ordering ~cost:base (fun () -> ())
  else
  match d.Network.payload with
  | Request { desc } ->
    (* Per-request bookkeeping: request log entry plus ordering timer
       management. *)
    let vspan =
      Probe.job t.probe ~parent:d.Network.span ~tag:Bftspan.Tag.Crypto_verify ~node:t.id
        ~instance:0 ~now:(Engine.now t.engine)
    in
    Resource.submit ~span:vspan t.ordering ~cost:(Time.add base bookkeeping)
      (fun () ->
        match Request_id_table.find_opt t.executed desc.id with
        | Some result ->
          send_from t t.ordering ~dst:(Principal.client desc.id.client)
            (Reply { id = desc.id; result })
        | None ->
          if Probe.audit t.probe then
            audit t
              (Bftmetrics.Event.Request_received
                 {
                   client = desc.id.client;
                   rid = desc.id.rid;
                   size = desc.op_size;
                 });
          Replica.submit ~span:vspan (replica t) desc)
  | Order m ->
    Resource.submit t.ordering ~cost:base (fun () -> Replica.receive (replica t) ~from m)
  | Reply _ -> ()

let create engine net cfg ~id ~service =
  let mk name = Resource.create engine ~name:(Printf.sprintf "sp%d.%s" id name) in
  let t =
    {
      engine;
      clock = Clock.create engine;
      net;
      probe = Network.probe net;
      cfg;
      id;
      service;
      ordering = mk "ordering";
      execution = mk "execution";
      replica = None;
      faults = { delay_fraction = 0.0 };
      executed = Request_id_table.create 4096;
      ledger = Pbftcore.Ledger.create (Network.probe net);
    }
  in
  let r = make_replica t in
  t.replica <- Some r;
  (Replica.adversary r).Replica.pp_delay <-
    (fun () ->
      if t.faults.delay_fraction > 0.0 then
        (* Stay under the accusation timeout even counting the commit
           phase that follows the delayed proposal. *)
        Time.max Time.zero
          (Time.sub
             (Time.mul_f (Replica.current_timeout r) t.faults.delay_fraction)
             (Time.ms 3))
      else Time.zero);
  Network.register_node net id (fun d -> on_delivery t d);
  t

let start _t = ()
