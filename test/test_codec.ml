(* Tests for the protocol wire codecs: roundtrips (including qcheck
   property coverage) and agreement between encoded lengths and the
   wire-size model used for cost accounting. *)

open Pbftcore.Types

let desc ?(heavy = false) ?(client = 3) ?(rid = 77) op =
  { (desc_of_op ~client ~rid op) with flagged_heavy = heavy }

let sample_pbft_messages =
  [
    Pbftcore.Messages.Pre_prepare
      { view = 2; seq = 19; descs = [ desc "alpha"; desc ~heavy:true ~client:1 ~rid:4 "bravo" ] };
    Pbftcore.Messages.Prepare
      { view = 0; seq = 1; digest = Bftcrypto.Sha256.digest_string "d" };
    Pbftcore.Messages.Commit
      { view = 5; seq = 123_456; digest = Bftcrypto.Sha256.digest_string "e" };
    Pbftcore.Messages.Checkpoint
      { seq = 128; state_digest = Bftcrypto.Sha256.digest_string "state" };
    Pbftcore.Messages.View_change
      {
        new_view = 7;
        last_stable = 256;
        prepared =
          [
            {
              Pbftcore.Messages.pseq = 260;
              pview = 6;
              pdigest = Bftcrypto.Sha256.digest_string "p";
              pdescs = [ desc ~client:2 ~rid:9 "cert" ];
            };
          ];
      };
    Pbftcore.Messages.New_view
      {
        view = 7;
        pre_prepares = [ { Pbftcore.Messages.view = 7; seq = 260; descs = [ desc "x" ] } ];
      };
  ]

(* Identifier ordering erases operation bodies from the wire. *)
let strip_ops (msg : Pbftcore.Messages.t) =
  let strip_desc d = { d with op = "" } in
  let strip_pp (pp : Pbftcore.Messages.pre_prepare) =
    { pp with Pbftcore.Messages.descs = List.map strip_desc pp.descs }
  in
  match msg with
  | Pbftcore.Messages.Pre_prepare pp -> Pbftcore.Messages.Pre_prepare (strip_pp pp)
  | Pbftcore.Messages.New_view { view; pre_prepares } ->
    Pbftcore.Messages.New_view { view; pre_prepares = List.map strip_pp pre_prepares }
  | Pbftcore.Messages.View_change { new_view; last_stable; prepared } ->
    Pbftcore.Messages.View_change
      {
        new_view;
        last_stable;
        prepared =
          List.map
            (fun (p : Pbftcore.Messages.prepared_proof) ->
              { p with pdescs = List.map strip_desc p.pdescs })
            prepared;
      }
  | Pbftcore.Messages.Prepare _ | Pbftcore.Messages.Commit _
  | Pbftcore.Messages.Checkpoint _ ->
    msg

let test_pbft_roundtrip_identifiers () =
  List.iter
    (fun msg ->
      match Pbftcore.Codec.decode ~order_full_requests:false
              (Pbftcore.Codec.encode ~order_full_requests:false msg)
      with
      | Some decoded ->
        Alcotest.(check bool)
          (Pbftcore.Messages.type_tag msg ^ " roundtrip (ids)")
          true
          (decoded = strip_ops msg)
      | None -> Alcotest.fail "decode failed")
    sample_pbft_messages

let test_pbft_roundtrip_full () =
  List.iter
    (fun msg ->
      match Pbftcore.Codec.decode ~order_full_requests:true
              (Pbftcore.Codec.encode ~order_full_requests:true msg)
      with
      | Some decoded ->
        (* New-view re-proposals and view-change certificate batches
           always travel as identifiers. *)
        let expected =
          match msg with
          | Pbftcore.Messages.New_view _ | Pbftcore.Messages.View_change _ ->
            strip_ops msg
          | m -> m
        in
        Alcotest.(check bool)
          (Pbftcore.Messages.type_tag msg ^ " roundtrip (full)")
          true (decoded = expected)
      | None -> Alcotest.fail "decode failed")
    sample_pbft_messages

let test_pbft_garbage_rejected () =
  Alcotest.(check bool) "empty" true
    (Pbftcore.Codec.decode ~order_full_requests:false "" = None);
  Alcotest.(check bool) "bad tag" true
    (Pbftcore.Codec.decode ~order_full_requests:false "\xFF rest" = None);
  let valid =
    Pbftcore.Codec.encode ~order_full_requests:false (List.hd sample_pbft_messages)
  in
  Alcotest.(check bool) "trailing bytes" true
    (Pbftcore.Codec.decode ~order_full_requests:false (valid ^ "x") = None);
  Alcotest.(check bool) "truncated" true
    (Pbftcore.Codec.decode ~order_full_requests:false
       (String.sub valid 0 (String.length valid / 2))
    = None)

let sample_rbft_messages =
  let req op = { Rbft.Messages.desc = desc op; sig_valid = true; mac_invalid_for = [ 0; 2 ] } in
  [
    Rbft.Messages.Request (req "operation body");
    Rbft.Messages.Propagate { req = req "other"; junk = false };
    Rbft.Messages.Instance
      {
        instance = 1;
        msg =
          Pbftcore.Messages.Prepare
            { view = 1; seq = 9; digest = Bftcrypto.Sha256.digest_string "z" };
      };
    Rbft.Messages.Instance_change { cpi = 4 };
    Rbft.Messages.Reply { id = { client = 9; rid = 12 }; result = "ok" };
    Rbft.Messages.Busy { id = { client = 5; rid = 77 }; retry_after = Dessim.Time.ms 10 };
  ]

let test_rbft_roundtrip () =
  List.iter
    (fun msg ->
      match
        Rbft.Codec.decode ~order_full_requests:false
          (Rbft.Codec.encode ~order_full_requests:false msg)
      with
      | Some decoded ->
        Alcotest.(check bool) (Rbft.Messages.type_tag msg ^ " roundtrip") true
          (decoded = msg)
      | None -> Alcotest.fail (Rbft.Messages.type_tag msg ^ ": decode failed"))
    sample_rbft_messages

let test_rbft_junk_propagate_roundtrip () =
  let junk =
    Rbft.Messages.Propagate
      {
        req =
          {
            Rbft.Messages.desc = { (desc "junk" ~client:(-1) ~rid:3) with op_size = 9000 };
            sig_valid = false;
            mac_invalid_for = [];
          };
        junk = true;
      }
  in
  match
    Rbft.Codec.decode ~order_full_requests:false
      (Rbft.Codec.encode ~order_full_requests:false junk)
  with
  | Some decoded -> Alcotest.(check bool) "junk roundtrip exact" true (decoded = junk)
  | None -> Alcotest.fail "junk roundtrip failed"

(* BUSY is the admission gate's refusal; it must survive both codec
   variants byte-exactly (the retry hint drives client backoff, so a
   lossy hint would desynchronise the retry schedule). *)
let test_rbft_busy_roundtrip () =
  List.iter
    (fun order_full_requests ->
      List.iter
        (fun retry_after ->
          let msg =
            Rbft.Messages.Busy { id = { client = 2; rid = 41 }; retry_after }
          in
          match
            Rbft.Codec.decode ~order_full_requests
              (Rbft.Codec.encode ~order_full_requests msg)
          with
          | Some decoded ->
            Alcotest.(check bool)
              (Printf.sprintf "busy roundtrip (full=%b hint=%s)"
                 order_full_requests
                 (Dessim.Time.to_string retry_after))
              true (decoded = msg)
          | None -> Alcotest.fail "busy decode failed")
        [ Dessim.Time.zero; Dessim.Time.us 1; Dessim.Time.ms 10; Dessim.Time.of_sec_f 1.3 ])
    [ false; true ]

(* Wire sizes used for cost accounting must track encoded lengths for
   the dominant, size-dependent parts (bodies, digests, batches). The
   model adds the authenticated envelope which the codec does not
   carry: the MAC authenticator and the sender's id (a u32). *)
let test_sizes_track_model () =
  let n = 4 in
  let envelope = (n * Bftcrypto.Keys.mac_tag_size) + 4 in
  List.iter
    (fun msg ->
      let model = Pbftcore.Messages.wire_size ~n ~order_full_requests:false msg in
      let actual =
        String.length (Pbftcore.Codec.encode ~order_full_requests:false msg) + envelope
      in
      let drift = abs (model - actual) in
      Alcotest.(check bool)
        (Printf.sprintf "%s model %d vs encoded %d"
           (Pbftcore.Messages.type_tag msg) model actual)
        true
        (drift * 100 <= 30 * Stdlib.max model actual))
    sample_pbft_messages

let prop_pbft_pp_roundtrip =
  QCheck.Test.make ~name:"pre-prepare codec roundtrip"
    QCheck.(
      pair (int_bound 1000)
        (small_list (triple (int_bound 50) (int_bound 10_000) (string_of_size Gen.(int_range 0 64)))))
    (fun (view, reqs) ->
      let descs = List.map (fun (c, rid, op) -> desc ~client:c ~rid op) reqs in
      let msg = Pbftcore.Messages.Pre_prepare { view; seq = view + 1; descs } in
      match
        Pbftcore.Codec.decode ~order_full_requests:true
          (Pbftcore.Codec.encode ~order_full_requests:true msg)
      with
      | Some decoded -> decoded = msg
      | None -> false)

let prop_rbft_request_roundtrip =
  QCheck.Test.make ~name:"request codec roundtrip"
    QCheck.(triple (int_bound 100) (int_bound 100_000) string)
    (fun (client, rid, op) ->
      let msg =
        Rbft.Messages.Request
          { desc = desc ~client ~rid op; sig_valid = client mod 2 = 0; mac_invalid_for = [] }
      in
      match
        Rbft.Codec.decode ~order_full_requests:false
          (Rbft.Codec.encode ~order_full_requests:false msg)
      with
      | Some decoded -> decoded = msg
      | None -> false)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "codec.pbft",
      [
        Alcotest.test_case "roundtrip (identifiers)" `Quick test_pbft_roundtrip_identifiers;
        Alcotest.test_case "roundtrip (full requests)" `Quick test_pbft_roundtrip_full;
        Alcotest.test_case "garbage rejected" `Quick test_pbft_garbage_rejected;
        Alcotest.test_case "wire sizes track the model" `Quick test_sizes_track_model;
      ]
      @ qsuite [ prop_pbft_pp_roundtrip ] );
    ( "codec.rbft",
      [
        Alcotest.test_case "roundtrip" `Quick test_rbft_roundtrip;
        Alcotest.test_case "junk propagate" `Quick test_rbft_junk_propagate_roundtrip;
        Alcotest.test_case "busy roundtrip" `Quick test_rbft_busy_roundtrip;
      ]
      @ qsuite [ prop_rbft_request_roundtrip ] );
  ]
