(** Node-level messages of RBFT (Figure 5 of the paper), carrying the
    per-instance ordering traffic as a payload.

    Authentication is represented by validity flags: the simulator
    charges the CPU cost of MAC/signature checks through the cost
    model, and the flags say what the check would conclude. Faulty
    clients and nodes produce messages with [false] flags (invalid
    signatures, junk floods); correct ones always produce [true].

    No message names its sender: a message's sender is its
    authenticated source, the delivery's [src]. A node therefore cannot
    speak for another node, whatever it writes in a payload. *)

open Pbftcore.Types

type request = {
  desc : request_desc;
  sig_valid : bool;  (** the client signature verifies *)
  mac_invalid_for : int list;
      (** nodes for which the MAC authenticator entry is broken — the
          selective-verification trick of worst-attack-1, action (i) *)
}

type t =
  | Request of request  (** client → all nodes (step 1) *)
  | Propagate of { req : request; junk : bool }
      (** node → nodes (step 2); [junk] marks flood padding whose MAC
          can never verify *)
  | Propagate_batch of { reqs : request list; owner : int }
      (** concurrent (bftrcc) ordering: all of a node's pending
          PROPAGATEs for the partition [owner] owns, authenticated by
          one batch MAC authenticator instead of per-request vectors *)
  | Instance of { instance : int; msg : Pbftcore.Messages.t }
      (** replica → replica of the same instance (steps 3–5) *)
  | Instance_change of { cpi : int }
      (** monitoring protocol (Section IV-D) *)
  | Reply of { id : request_id; result : string }
      (** node → client (step 6) *)
  | Busy of { id : request_id; retry_after : Dessim.Time.t }
      (** node → client backpressure: the admission gate
          ({!Bftflow.Admission}) refused the request because the node's
          in-flight budget is exhausted; [retry_after] hints when a
          retry can be admitted. Clients treat it as a shed, not a
          result: f+1 distinct BUSYs trigger a backed-off retry of the
          same request id *)

val request_wire_size : request -> n:int -> int
(** Signed request + MAC authenticator for the [n] nodes. *)

val wire_size : t -> n:int -> order_full_requests:bool -> int

val type_tag : t -> string
