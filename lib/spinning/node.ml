open Dessim
open Bftcrypto
open Bftnet
open Pbftcore.Types
module Node_core = Pbftcore.Node_core
module Probe = Bftmetrics.Probe

type msg =
  | Request of { desc : request_desc }
  | Order of Replica.msg
  | Reply of { id : request_id; result : string }

type config = { f : int }

let default_config ~f = { f }
let bookkeeping = Time.us 12
let body_copy_factor = 2.0

type faults = { mutable delay_fraction : float }

type t = {
  core : msg Node_core.t;
  ordering : Resource.t;
  execution : Resource.t;
  mutable replica : Replica.t option;
  faults : faults;
}

let id t = t.core.id
let faults t = t.faults
let replica t = match t.replica with Some r -> r | None -> assert false
let ledger t = t.core.ledger
let set_clock_factor t = Node_core.set_clock_factor t.core
let set_cpu_factor t = Node_core.set_cpu_factor t.core

let request_size ~n (desc : request_desc) = 16 + desc.op_size + (n * Keys.mac_tag_size)

let msg_size ~n m =
  let mac_auth = n * Keys.mac_tag_size in
  match m with
  | Request { desc } -> request_size ~n desc
  | Order (Replica.Pre_prepare { descs; _ }) ->
    (* Spinning's ordering messages carry the full requests. *)
    16 + List.fold_left (fun acc d -> acc + id_wire_size + d.op_size) 0 descs + mac_auth
  | Order (Replica.Prepare _ | Replica.Commit _) -> 16 + Sha256.size + mac_auth
  | Order (Replica.Accuse _) -> 16 + 8 + mac_auth
  | Reply { result; _ } -> 16 + String.length result + Keys.mac_tag_size

(* Ordering messages carry full request bodies; the prototype copies
   them through its buffers, which [cost_bytes] accounts for. *)
let cost_bytes m ~size =
  match m with
  | Order (Replica.Pre_prepare _) ->
    int_of_float (float_of_int size *. body_copy_factor)
  | Order _ | Request _ | Reply _ -> size

let make_replica t ~f =
  let cfg = { Replica.n = t.core.n; f; replica_id = t.core.id } in
  let broadcast m = Node_core.broadcast t.core t.ordering (Order m) in
  let deliver _seq descs =
    List.iter
      (fun (desc : request_desc) ->
        let parent =
          if Probe.spans t.core.probe then Replica.take_span (replica t) ~id:desc.id
          else -1
        in
        Node_core.submit_execution t.core t.execution ~parent desc)
      descs
  in
  Replica.create ~probe:t.core.probe ~clock:t.core.clock t.core.engine cfg
    { Replica.broadcast; deliver }

let on_delivery t ~from ~recv ~verify (d : msg Network.delivery) =
  let base = Time.add recv verify in
  match d.Network.payload with
  | Request { desc } ->
    (* Per-request bookkeeping: request log entry plus ordering timer
       management. *)
    let vspan =
      Probe.job t.core.probe ~parent:d.Network.span ~tag:Bftmetrics.Tag.Crypto_verify
        ~node:t.core.id ~instance:0 ~now:(Engine.now t.core.engine)
    in
    Resource.submit ~span:vspan t.ordering ~cost:(Time.add base bookkeeping) (fun () ->
        if not (Node_core.resend_reply t.core t.ordering desc.id) then begin
          if Probe.audit t.core.probe then
            Node_core.audit t.core ~instance:0
              (Bftmetrics.Event.Request_received
                 { client = desc.id.client; rid = desc.id.rid; size = desc.op_size });
          Replica.submit ~span:vspan (replica t) desc
        end)
  | Order m ->
    Resource.submit t.ordering ~cost:base (fun () -> Replica.receive (replica t) ~from m)
  | Reply _ -> ()

let create engine net cfg ~id ~service =
  let n = (3 * cfg.f) + 1 in
  let core =
    Node_core.create engine net ~id ~n ~service ~name:(Printf.sprintf "sp%d" id)
      ~size:(msg_size ~n) ~cost_bytes ~scheme:Node_core.Mac ~authenticate_replies:true
      ~node_only:(function Order _ -> true | Request _ | Reply _ -> false)
      ~reply:(fun id result -> Reply { id; result })
  in
  let t =
    {
      core;
      ordering = Node_core.thread core "ordering";
      execution = Node_core.thread core "execution";
      replica = None;
      faults = { delay_fraction = 0.0 };
    }
  in
  let r = make_replica t ~f:cfg.f in
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
  (* A failed authenticator, or ordering traffic from a client, pays
     its verification, then is dropped. *)
  Node_core.listen core ~forged_on:t.ordering (on_delivery t);
  t

let start _t = ()
