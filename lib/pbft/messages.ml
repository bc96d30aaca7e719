open Types

type pre_prepare = { view : view; seq : seqno; descs : request_desc list }

(* A prepared certificate carried in a VIEW-CHANGE: this replica
   collected 2f matching PREPAREs for [pdigest] at [pseq] in [pview].
   [pdescs] is the batch behind the digest (identifiers only), so the
   new primary can re-propose a certificate it never saw the
   PRE-PREPARE of — the role of the new-view computation in PBFT. *)
type prepared_proof = {
  pseq : seqno;
  pview : view;
  pdigest : string;
  pdescs : request_desc list;
}

type t =
  | Pre_prepare of pre_prepare
  | Prepare of { view : view; seq : seqno; digest : string }
  | Commit of { view : view; seq : seqno; digest : string }
  | Checkpoint of { seq : seqno; state_digest : string }
  | View_change of {
      new_view : view;
      last_stable : seqno;
      prepared : prepared_proof list;
    }
  | New_view of { view : view; pre_prepares : pre_prepare list }

let digest_batch descs =
  let buf = Buffer.create (List.length descs * 48) in
  List.iter
    (fun d ->
      Buffer.add_string buf (string_of_int d.id.client);
      Buffer.add_char buf '.';
      Buffer.add_string buf (string_of_int d.id.rid);
      Buffer.add_string buf d.digest)
    descs;
  Bftcrypto.Sha256.digest_string (Buffer.contents buf)

(* A PRE-PREPARE reaches every replica of its instance as one shared
   value, and each of them digests its batch. The last [memo_size]
   batches digested in this domain are remembered by identity: a batch
   list is immutable, so the same list has the same digest. Identity is
   the exact input, not a digest its sender supplied: an equivocating
   primary's two batches are two lists, digested apart. The empty batch
   is never memoised (every [[]] is the same value). *)
let memo_size = 8

type memo = {
  batches : request_desc list array;
  digests : string array;
  mutable next : int;  (* the entry to overwrite next *)
}

let memo_key =
  Domain.DLS.new_key (fun () ->
      { batches = Array.make memo_size []; digests = Array.make memo_size ""; next = 0 })

let rec memo_find m descs i =
  if i = memo_size then begin
    let d = digest_batch descs in
    m.batches.(m.next) <- descs;
    m.digests.(m.next) <- d;
    m.next <- (m.next + 1) mod memo_size;
    d
  end
  else if m.batches.(i) == descs then m.digests.(i)
  else memo_find m descs (i + 1)

let batch_digest descs =
  match descs with
  | [] -> digest_batch descs
  | _ :: _ -> memo_find (Domain.DLS.get memo_key) descs 0

(* Type tag, view, seq and the sender's replica id. The id rides in the
   authenticated envelope (the delivery's source), not in [t]. *)
let header_size = 16

let mac_auth_size ~n = n * Bftcrypto.Keys.mac_tag_size

let pre_prepare_size ~n ~order_full_requests pp =
  let per_desc d =
    if order_full_requests then id_wire_size + d.op_size else id_wire_size
  in
  header_size
  + List.fold_left (fun acc d -> acc + per_desc d) 0 pp.descs
  + mac_auth_size ~n

let wire_size ~n ~order_full_requests = function
  | Pre_prepare pp -> pre_prepare_size ~n ~order_full_requests pp
  | Prepare _ | Commit _ ->
    header_size + Bftcrypto.Sha256.size + mac_auth_size ~n
  | Checkpoint _ -> header_size + Bftcrypto.Sha256.size + mac_auth_size ~n
  | View_change { prepared; _ } ->
    header_size + 8
    + List.fold_left
        (fun acc (p : prepared_proof) ->
          acc + 12 + Bftcrypto.Sha256.size
          + (List.length p.pdescs * id_wire_size))
        0 prepared
    + mac_auth_size ~n
  | New_view { pre_prepares; _ } ->
    header_size
    + List.fold_left
        (fun acc pp -> acc + pre_prepare_size ~n ~order_full_requests:false pp)
        0 pre_prepares
    + mac_auth_size ~n

let type_tag = function
  | Pre_prepare _ -> "pre-prepare"
  | Prepare _ -> "prepare"
  | Commit _ -> "commit"
  | Checkpoint _ -> "checkpoint"
  | View_change _ -> "view-change"
  | New_view _ -> "new-view"

let pp fmt = function
  | Pre_prepare { view; seq; descs } ->
    Format.fprintf fmt "PRE-PREPARE(v=%d,s=%d,|b|=%d)" view seq (List.length descs)
  | Prepare { view; seq; _ } -> Format.fprintf fmt "PREPARE(v=%d,s=%d)" view seq
  | Commit { view; seq; _ } -> Format.fprintf fmt "COMMIT(v=%d,s=%d)" view seq
  | Checkpoint { seq; _ } -> Format.fprintf fmt "CHECKPOINT(s=%d)" seq
  | View_change { new_view; _ } -> Format.fprintf fmt "VIEW-CHANGE(v=%d)" new_view
  | New_view { view; pre_prepares; _ } ->
    Format.fprintf fmt "NEW-VIEW(v=%d,|pp|=%d)" view (List.length pre_prepares)
