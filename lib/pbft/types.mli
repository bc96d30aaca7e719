(** Shared vocabulary of the ordering protocol. *)

type request_id = { client : int; rid : int }
(** A request is identified by its issuing client and a per-client
    sequence number, as in the paper's REQUEST message. *)

val compare_request_id : request_id -> request_id -> int

type request_desc = {
  id : request_id;
  digest : string;  (** SHA-256 of the operation payload *)
  op : string;  (** the operation itself (kept for execution) *)
  op_size : int;
      (** wire size of the full operation; identifiers-only ordering
          puts only [digest] on the wire, full-request ordering puts
          [op_size] bytes *)
  flagged_heavy : bool;  (** true for the Prime attack's 1 ms requests *)
}
(** What the ordering instances manipulate. The paper's RBFT instances
    "do not order the whole request but only its identifiers (client
    id, request id and digest)" — [op] never crosses the simulated wire
    unless [order_full_requests] is set. *)

val desc_of_op : client:int -> rid:int -> string -> request_desc
(** Build a descriptor, hashing the operation. *)

val id_wire_size : int
(** Bytes an identifier triple (client, rid, digest) occupies. *)

type view = int
type seqno = int

module Request_id_map : Map.S with type key = request_id
module Request_id_set : Set.S with type elt = request_id
module Request_id_table : Hashtbl.S with type key = request_id
