(* Binary wire codec for instance messages, kept with the tests.

   The simulator passes messages as values and only charges for their
   [Pbftcore.Messages.wire_size]; no run encodes a message. This codec
   makes the format concrete (what the bytes on the simulated wire
   would look like) so the tests can check that [wire_size] agrees
   with the encoded length.

   With identifier ordering (RBFT), PRE-PREPAREs carry request
   identifiers only: the operation body is not on the wire, so decoding
   restores every field except [op] (left empty, with [op_size]
   preserved). With [order_full_requests] the body travels too and the
   roundtrip is exact. [decode] returns [None] on malformed input
   (truncated, bad tag, trailing bytes). *)

open Pbftcore
open Types
open Bftnet

let tag_pre_prepare = 1
let tag_prepare = 2
let tag_commit = 3
let tag_checkpoint = 4
let tag_view_change = 5
let tag_new_view = 6

let encode_desc ~order_full_requests w (d : request_desc) =
  Wire.Writer.u32 w d.id.client;
  Wire.Writer.u64 w d.id.rid;
  Wire.Writer.bytes w d.digest;
  Wire.Writer.u8 w (if d.flagged_heavy then 1 else 0);
  if order_full_requests then Wire.Writer.string w d.op
  else Wire.Writer.varint w d.op_size

let decode_desc ~order_full_requests r =
  let client = Wire.Reader.u32 r in
  let rid = Wire.Reader.u64 r in
  let digest = Wire.Reader.bytes r Bftcrypto.Sha256.size in
  let flagged_heavy = Wire.Reader.u8 r = 1 in
  if order_full_requests then begin
    let op = Wire.Reader.string r in
    { id = { client; rid }; digest; op; op_size = String.length op; flagged_heavy }
  end
  else begin
    let op_size = Wire.Reader.varint r in
    { id = { client; rid }; digest; op = ""; op_size; flagged_heavy }
  end

let encode_pp ~order_full_requests w (pp : Messages.pre_prepare) =
  Wire.Writer.u32 w pp.view;
  Wire.Writer.u64 w pp.seq;
  Wire.Writer.list w (encode_desc ~order_full_requests w) pp.descs

let decode_pp ~order_full_requests r : Messages.pre_prepare =
  let view = Wire.Reader.u32 r in
  let seq = Wire.Reader.u64 r in
  let descs = Wire.Reader.list r (decode_desc ~order_full_requests) in
  { view; seq; descs }

let encode ~order_full_requests msg =
  let w = Wire.Writer.create () in
  (match msg with
   | Messages.Pre_prepare pp ->
     Wire.Writer.u8 w tag_pre_prepare;
     encode_pp ~order_full_requests w pp
   | Messages.Prepare { view; seq; digest } ->
     Wire.Writer.u8 w tag_prepare;
     Wire.Writer.u32 w view;
     Wire.Writer.u64 w seq;
     Wire.Writer.bytes w digest
   | Messages.Commit { view; seq; digest } ->
     Wire.Writer.u8 w tag_commit;
     Wire.Writer.u32 w view;
     Wire.Writer.u64 w seq;
     Wire.Writer.bytes w digest
   | Messages.Checkpoint { seq; state_digest } ->
     Wire.Writer.u8 w tag_checkpoint;
     Wire.Writer.u64 w seq;
     Wire.Writer.string w state_digest
   | Messages.View_change { new_view; last_stable; prepared } ->
     Wire.Writer.u8 w tag_view_change;
     Wire.Writer.u32 w new_view;
     Wire.Writer.u64 w last_stable;
     Wire.Writer.list w
       (fun (p : Messages.prepared_proof) ->
         Wire.Writer.u64 w p.pseq;
         Wire.Writer.u32 w p.pview;
         Wire.Writer.bytes w p.pdigest;
         (* Certificate batches always travel as identifiers. *)
         Wire.Writer.list w
           (encode_desc ~order_full_requests:false w)
           p.pdescs)
       prepared
   | Messages.New_view { view; pre_prepares } ->
     Wire.Writer.u8 w tag_new_view;
     Wire.Writer.u32 w view;
     (* Re-proposed batches always travel as identifiers. *)
     Wire.Writer.list w (encode_pp ~order_full_requests:false w) pre_prepares);
  Wire.Writer.contents w

let decode ~order_full_requests s =
  match
    let r = Wire.Reader.of_string s in
    let tag = Wire.Reader.u8 r in
    let msg =
      if tag = tag_pre_prepare then
        Some (Messages.Pre_prepare (decode_pp ~order_full_requests r))
      else if tag = tag_prepare then begin
        let view = Wire.Reader.u32 r in
        let seq = Wire.Reader.u64 r in
        let digest = Wire.Reader.bytes r Bftcrypto.Sha256.size in
        Some (Messages.Prepare { view; seq; digest })
      end
      else if tag = tag_commit then begin
        let view = Wire.Reader.u32 r in
        let seq = Wire.Reader.u64 r in
        let digest = Wire.Reader.bytes r Bftcrypto.Sha256.size in
        Some (Messages.Commit { view; seq; digest })
      end
      else if tag = tag_checkpoint then begin
        let seq = Wire.Reader.u64 r in
        let state_digest = Wire.Reader.string r in
        Some (Messages.Checkpoint { seq; state_digest })
      end
      else if tag = tag_view_change then begin
        let new_view = Wire.Reader.u32 r in
        let last_stable = Wire.Reader.u64 r in
        let prepared =
          Wire.Reader.list r (fun r ->
              let pseq = Wire.Reader.u64 r in
              let pview = Wire.Reader.u32 r in
              let pdigest = Wire.Reader.bytes r Bftcrypto.Sha256.size in
              let pdescs =
                Wire.Reader.list r (decode_desc ~order_full_requests:false)
              in
              { Messages.pseq; pview; pdigest; pdescs })
        in
        Some (Messages.View_change { new_view; last_stable; prepared })
      end
      else if tag = tag_new_view then begin
        let view = Wire.Reader.u32 r in
        let pre_prepares = Wire.Reader.list r (decode_pp ~order_full_requests:false) in
        Some (Messages.New_view { view; pre_prepares })
      end
      else None
    in
    match msg with
    | Some _ when Wire.Reader.at_end r -> msg
    | Some _ | None -> None
  with
  | v -> v
  | exception Wire.Reader.Truncated -> None
