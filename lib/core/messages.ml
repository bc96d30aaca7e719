open Pbftcore.Types

type request = {
  desc : request_desc;
  sig_valid : bool;
  mac_invalid_for : int list;
}

type t =
  | Request of request
  | Propagate of { req : request; junk : bool }
  | Propagate_batch of { reqs : request list; owner : int }
      (** concurrent (bftrcc) mode: requests of one partition coalesced
          into a single PROPAGATE, amortising per-message handling and
          carrying one batch authenticator instead of one MAC vector
          per request (receivers authenticate the forwarded requests by
          their client signatures) *)
  | Instance of { instance : int; msg : Pbftcore.Messages.t }
  | Instance_change of { cpi : int }
  | Reply of { id : request_id; result : string }
  | Busy of { id : request_id; retry_after : Dessim.Time.t }

let header = 16

let request_wire_size r ~n =
  header + r.desc.op_size + Bftcrypto.Keys.signature_size
  + (n * Bftcrypto.Keys.mac_tag_size)

let wire_size msg ~n ~order_full_requests =
  match msg with
  | Request r -> request_wire_size r ~n
  | Propagate { req; _ } -> header + request_wire_size req ~n
  | Propagate_batch { reqs; _ } ->
    (* Per request: header + op + client signature. The client's
       per-node MAC vector is not forwarded (the signature
       authenticates the request); one MAC authenticator covers the
       whole batch. *)
    header
    + (n * Bftcrypto.Keys.mac_tag_size)
    + List.fold_left
        (fun acc r ->
          acc + header + r.desc.op_size + Bftcrypto.Keys.signature_size)
        0 reqs
  | Instance { msg; _ } ->
    header + Pbftcore.Messages.wire_size ~n ~order_full_requests msg
  | Instance_change _ -> header + 8 + (n * Bftcrypto.Keys.mac_tag_size)
  | Reply { result; _ } ->
    header + String.length result + Bftcrypto.Keys.mac_tag_size
  | Busy _ -> header + 8 + Bftcrypto.Keys.mac_tag_size

let type_tag = function
  | Request _ -> "request"
  | Propagate _ -> "propagate"
  | Propagate_batch _ -> "propagate-batch"
  | Instance { msg; _ } -> "instance." ^ Pbftcore.Messages.type_tag msg
  | Instance_change _ -> "instance-change"
  | Reply _ -> "reply"
  | Busy _ -> "busy"
