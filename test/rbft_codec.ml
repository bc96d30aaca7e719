(* Binary wire codec for RBFT's node-level messages (Figure 5), kept
   with the tests like [Pbft_codec], which it complements for the
   per-instance traffic: REQUEST/PROPAGATE/REPLY and INSTANCE-CHANGE
   are node-level. Authentication material travels as placeholder
   bytes of the real size (a signature slot and a one-byte validity
   marker standing for the simulator's validity flags); the tests check
   the encoded length matches [Rbft.Messages.wire_size] up to the
   authenticated envelope the network frames add: the MAC
   authenticator and the sender's id. *)

open Bftnet
open Pbftcore.Types
open Rbft

let tag_request = 10
let tag_propagate = 11
let tag_instance = 12
let tag_instance_change = 13
let tag_reply = 14
let tag_propagate_batch = 15
let tag_busy = 16

let encode_request w (r : Messages.request) =
  Wire.Writer.u32 w r.desc.id.client;
  Wire.Writer.u64 w r.desc.id.rid;
  Wire.Writer.string w r.desc.op;
  (* The signature slot: a validity marker padded to signature size. *)
  Wire.Writer.u8 w (if r.sig_valid then 1 else 0);
  Wire.Writer.bytes w (String.make (Bftcrypto.Keys.signature_size - 1) '\000');
  Wire.Writer.list w (Wire.Writer.u32 w) r.mac_invalid_for

let decode_request r : Messages.request =
  let client = Wire.Reader.u32 r in
  let rid = Wire.Reader.u64 r in
  let op = Wire.Reader.string r in
  let sig_valid = Wire.Reader.u8 r = 1 in
  let (_ : string) = Wire.Reader.bytes r (Bftcrypto.Keys.signature_size - 1) in
  let mac_invalid_for = Wire.Reader.list r Wire.Reader.u32 in
  {
    Messages.desc = desc_of_op ~client ~rid op;
    sig_valid;
    mac_invalid_for;
  }

let encode ~order_full_requests msg =
  let w = Wire.Writer.create () in
  (match msg with
   | Messages.Request req ->
     Wire.Writer.u8 w tag_request;
     encode_request w req
   | Messages.Propagate { req; junk } ->
     Wire.Writer.u8 w tag_propagate;
     Wire.Writer.u8 w (if junk then 1 else 0);
     if junk then begin
       Wire.Writer.u64 w req.Messages.desc.id.rid;
       Wire.Writer.varint w req.Messages.desc.op_size
     end
     else encode_request w req
   | Messages.Propagate_batch { reqs; owner } ->
     Wire.Writer.u8 w tag_propagate_batch;
     Wire.Writer.u8 w owner;
     Wire.Writer.list w (encode_request w) reqs
   | Messages.Instance { instance; msg } ->
     Wire.Writer.u8 w tag_instance;
     Wire.Writer.u8 w instance;
     Wire.Writer.string w (Pbft_codec.encode ~order_full_requests msg)
   | Messages.Instance_change { cpi } ->
     Wire.Writer.u8 w tag_instance_change;
     Wire.Writer.u64 w cpi
   | Messages.Reply { id; result } ->
     Wire.Writer.u8 w tag_reply;
     Wire.Writer.u32 w id.client;
     Wire.Writer.u64 w id.rid;
     Wire.Writer.string w result
   | Messages.Busy { id; retry_after } ->
     Wire.Writer.u8 w tag_busy;
     Wire.Writer.u32 w id.client;
     Wire.Writer.u64 w id.rid;
     (* Virtual time is an integer nanosecond count. *)
     Wire.Writer.u64 w retry_after);
  Wire.Writer.contents w

let decode ~order_full_requests s =
  match
    let r = Wire.Reader.of_string s in
    let tag = Wire.Reader.u8 r in
    let msg =
      if tag = tag_request then Some (Messages.Request (decode_request r))
      else if tag = tag_propagate then begin
        let junk = Wire.Reader.u8 r = 1 in
        if junk then begin
          let rid = Wire.Reader.u64 r in
          let op_size = Wire.Reader.varint r in
          let desc = { (desc_of_op ~client:(-1) ~rid "junk") with op_size } in
          Some
            (Messages.Propagate
               { req = { desc; sig_valid = false; mac_invalid_for = [] }; junk })
        end
        else
          let req = decode_request r in
          Some (Messages.Propagate { req; junk })
      end
      else if tag = tag_propagate_batch then begin
        let owner = Wire.Reader.u8 r in
        let reqs = Wire.Reader.list r decode_request in
        Some (Messages.Propagate_batch { reqs; owner })
      end
      else if tag = tag_instance then begin
        let instance = Wire.Reader.u8 r in
        let inner = Wire.Reader.string r in
        match Pbft_codec.decode ~order_full_requests inner with
        | Some msg -> Some (Messages.Instance { instance; msg })
        | None -> None
      end
      else if tag = tag_instance_change then begin
        let cpi = Wire.Reader.u64 r in
        Some (Messages.Instance_change { cpi })
      end
      else if tag = tag_reply then begin
        let client = Wire.Reader.u32 r in
        let rid = Wire.Reader.u64 r in
        let result = Wire.Reader.string r in
        Some (Messages.Reply { id = { client; rid }; result })
      end
      else if tag = tag_busy then begin
        let client = Wire.Reader.u32 r in
        let rid = Wire.Reader.u64 r in
        let retry_after = Wire.Reader.u64 r in
        Some (Messages.Busy { id = { client; rid }; retry_after })
      end
      else None
    in
    match msg with
    | Some _ when Wire.Reader.at_end r -> msg
    | Some _ | None -> None
  with
  | v -> v
  | exception Wire.Reader.Truncated -> None
