type request_id = { client : int; rid : int }

let compare_request_id a b =
  match Int.compare a.client b.client with
  | 0 -> Int.compare a.rid b.rid
  | c -> c

type request_desc = {
  id : request_id;
  digest : string;
  op : string;
  op_size : int;
  flagged_heavy : bool;
}

let desc_of_op ~client ~rid op =
  {
    id = { client; rid };
    digest = Bftcrypto.Sha256.digest_string op;
    op;
    op_size = String.length op;
    flagged_heavy = false;
  }

(* client (4) + rid (8) + digest (32) *)
let id_wire_size = 44

type view = int
type seqno = int

module Ord = struct
  type t = request_id

  let compare = compare_request_id
end

module Request_id_map = Map.Make (Ord)
module Request_id_set = Set.Make (Ord)

module Hashed = struct
  type t = request_id

  let equal a b = compare_request_id a b = 0
  let hash { client; rid } = (client * 1_000_003) lxor rid
end

module Request_id_table = Hashtbl.Make (Hashed)
