(* Tests for the cryptographic substrate: standard vectors for SHA-256
   and HMAC-SHA-256, key-registry behaviour and cost-model sanity. *)

open Bftcrypto

let check_hex msg expected digest =
  Alcotest.(check string) msg expected (Sha256.to_hex digest)

(* FIPS 180-4 / NIST CAVP test vectors. *)
let test_sha256_vectors () =
  check_hex "empty"
    "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
    (Sha256.digest_string "");
  check_hex "abc"
    "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    (Sha256.digest_string "abc");
  check_hex "448-bit"
    "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
    (Sha256.digest_string "abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq");
  check_hex "896-bit"
    "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1"
    (Sha256.digest_string
       "abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijklmnhijklmno\
        ijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnopqrstu");
  check_hex "million a"
    "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
    (Sha256.digest_string (String.make 1_000_000 'a'))

let test_sha256_block_boundaries () =
  (* Lengths around the 55/56/64-byte padding boundaries exercise the
     message-padding logic. *)
  let reference = [
    (55, "9f4390f8d30c2dd92ec9f095b65e2b9ae9b0a925a5258e241c9f1e910f734318");
    (56, "b35439a4ac6f0948b6d6f9e3c6af0f5f590ce20f1bde7090ef7970686ec6738a");
    (57, "f13b2d724659eb3bf47f2dd6af1accc87b81f09f59f2b75e5c0bed6589dfe8c6");
    (63, "7d3e74a05d7db15bce4ad9ec0658ea98e3f06eeecf16b4c6fff2da457ddc2f34");
    (64, "ffe054fe7ae0cb6dc65c3af9b61d5209f439851db43d0ba5997337df154668eb");
    (65, "635361c48bb9eab14198e76ea8ab7f1a41685d6ad62aa9146d301d4f17eb0ae0");
  ]
  in
  List.iter
    (fun (n, expected) ->
      check_hex (string_of_int n) expected (Sha256.digest_string (String.make n 'a')))
    reference

let test_sha256_substring () =
  let s = "xxabcyy" in
  Alcotest.(check string) "substring matches standalone"
    (Sha256.to_hex (Sha256.digest_string "abc"))
    (Sha256.to_hex (Sha256.digest_substring s ~pos:2 ~len:3))

(* test/fixtures/sha256/digests.txt holds reference digests of the
   inputs below, for every length 0..200 and for substrings at
   non-zero offsets, written by the previous byte-at-a-time
   implementation. A line is [string N HEX] or [substring POS LEN HEX]. *)
let fixture_input n = String.init n (fun i -> Char.chr (((i * 31) + n) land 0xff))

let test_sha256_fixture () =
  let lines =
    In_channel.with_open_text "fixtures/sha256/digests.txt" In_channel.input_all
    |> String.split_on_char '\n'
    |> List.filter (fun l -> l <> "")
  in
  let host = fixture_input 300 in
  Alcotest.(check int) "fixture lines" 213 (List.length lines);
  List.iter
    (fun line ->
      match String.split_on_char ' ' line with
      | [ "string"; n; hex ] ->
        check_hex ("length " ^ n) hex (Sha256.digest_string (fixture_input (int_of_string n)))
      | [ "substring"; pos; len; hex ] ->
        check_hex
          (Printf.sprintf "substring %s+%s" pos len)
          hex
          (Sha256.digest_substring host ~pos:(int_of_string pos) ~len:(int_of_string len))
      | _ -> Alcotest.failf "bad fixture line %S" line)
    lines

(* The block counter is per domain: a digest adds (n + 8) / 64 + 1
   blocks to its own domain's count and nothing to another's. *)
let test_sha256_blocks_per_domain () =
  let blocks f =
    let b0 = Sha256.blocks_hashed () in
    f ();
    Sha256.blocks_hashed () - b0
  in
  List.iter
    (fun (n, expected) ->
      Alcotest.(check int)
        (Printf.sprintf "%d bytes" n)
        expected
        (blocks (fun () -> ignore (Sha256.digest_string (String.make n 'a')))))
    [ (0, 1); (55, 1); (56, 2); (64, 2); (119, 2); (120, 3); (4096, 65) ];
  Alcotest.(check int) "digest_concat of two 32 B digests" 2
    (blocks (fun () -> ignore (Sha256.digest_concat (String.make 32 'a') (String.make 32 'b'))));
  Alcotest.(check int) "another domain's digests" 0
    (blocks (fun () ->
         Domain.join
           (Domain.spawn (fun () -> ignore (Sha256.digest_string (String.make 4096 'a'))))))

(* [digest_concat] remembers recent results per domain. Fresh 32-byte
   inputs, distinct from every other test's. *)
let fresh_pair tag =
  (Sha256.digest_string ("memo-left-" ^ tag), Sha256.digest_string ("memo-right-" ^ tag))

let test_sha256_memo_repeat () =
  let a, b = fresh_pair "repeat" in
  let blocks f =
    let b0 = Sha256.blocks_hashed () in
    let d = f () in
    (d, Sha256.blocks_hashed () - b0)
  in
  let d1, first = blocks (fun () -> Sha256.digest_concat a b) in
  let d2, again = blocks (fun () -> Sha256.digest_concat a b) in
  Alcotest.(check int) "first call hashes" 2 first;
  Alcotest.(check int) "repeated call hashes nothing" 0 again;
  Alcotest.(check string) "same digest" (Sha256.to_hex d1) (Sha256.to_hex d2);
  (* Equal contents in other strings hit too: the key is the inputs'
     bytes, not their identity. *)
  let _, copy =
    blocks (fun () -> Sha256.digest_concat (Bytes.to_string (Bytes.of_string a)) b)
  in
  Alcotest.(check int) "equal copy hashes nothing" 0 copy

let test_sha256_memo_per_domain () =
  let a, b = fresh_pair "domain" in
  let here = Sha256.digest_concat a b in
  let there, hashed =
    Domain.join
      (Domain.spawn (fun () ->
           let b0 = Sha256.blocks_hashed () in
           let d = Sha256.digest_concat a b in
           (d, Sha256.blocks_hashed () - b0)))
  in
  Alcotest.(check int) "the other domain hashes its own" 2 hashed;
  Alcotest.(check string) "same digest" (Sha256.to_hex here) (Sha256.to_hex there)

let test_sha256_bytes_string_agree () =
  let payload = "the quick brown fox" in
  Alcotest.(check string) "bytes = string"
    (Sha256.to_hex (Sha256.digest_string payload))
    (Sha256.to_hex (Sha256.digest_bytes (Bytes.of_string payload)))

(* RFC 4231 test vectors for HMAC-SHA-256. *)
let test_hmac_vectors () =
  let hex s = Sha256.to_hex s in
  Alcotest.(check string) "rfc4231 case 1"
    "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac ~key:(String.make 20 '\x0b') "Hi There"));
  Alcotest.(check string) "rfc4231 case 2"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac ~key:"Jefe" "what do ya want for nothing?"));
  Alcotest.(check string) "rfc4231 case 3"
    "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
    (hex (Hmac.mac ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* Case 6: key longer than one block. *)
  Alcotest.(check string) "rfc4231 case 6"
    "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"
    (hex
       (Hmac.mac
          ~key:(String.make 131 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_hmac_truncated_verify () =
  let key = "secret" and msg = "payload" in
  let tag = Keyring.mac_truncated ~key ~len:8 msg in
  Alcotest.(check int) "tag length" 8 (String.length tag);
  Alcotest.(check bool) "verifies" true (Keyring.hmac_verify ~key ~tag msg);
  Alcotest.(check bool) "rejects other message" false
    (Keyring.hmac_verify ~key ~tag "other");
  Alcotest.(check bool) "rejects other key" false
    (Keyring.hmac_verify ~key:"wrong" ~tag msg)

let test_principal_ordering () =
  let open Principal in
  Alcotest.(check bool) "node < client" true (compare (node 5) (client 0) < 0);
  Alcotest.(check bool) "node order" true (compare (node 1) (node 2) < 0);
  Alcotest.(check bool) "equal" true (equal (client 3) (client 3));
  Alcotest.(check string) "pp node" "node2" (to_string (node 2));
  Alcotest.(check string) "pp client" "client7" (to_string (client 7));
  Alcotest.(check bool) "encode distinct" true
    (Keyring.encode (node 1) <> Keyring.encode (client 1))

let test_keys_pair_symmetric () =
  let keys = Keyring.create ~master:"m" in
  let a = Principal.node 0 and b = Principal.client 4 in
  Alcotest.(check string) "symmetric" (Keyring.pair_key keys a b) (Keyring.pair_key keys b a);
  Alcotest.(check bool) "distinct pairs" true
    (Keyring.pair_key keys a b <> Keyring.pair_key keys a (Principal.client 5))

let test_keys_deterministic () =
  let k1 = Keyring.create ~master:"seed" and k2 = Keyring.create ~master:"seed" in
  let a = Principal.node 1 and b = Principal.node 2 in
  Alcotest.(check string) "same master same keys" (Keyring.pair_key k1 a b) (Keyring.pair_key k2 a b);
  let k3 = Keyring.create ~master:"other" in
  Alcotest.(check bool) "different master different keys" true
    (Keyring.pair_key k1 a b <> Keyring.pair_key k3 a b)

let test_signature_roundtrip () =
  let keys = Keyring.create ~master:"m" in
  let signer = Principal.client 1 in
  let signature = Keyring.sign keys ~signer "request body" in
  Alcotest.(check int) "size" Keys.signature_size (String.length signature);
  Alcotest.(check bool) "verifies" true
    (Keyring.verify_signature keys ~signer ~signature "request body");
  Alcotest.(check bool) "wrong message" false
    (Keyring.verify_signature keys ~signer ~signature "tampered");
  Alcotest.(check bool) "wrong signer" false
    (Keyring.verify_signature keys ~signer:(Principal.client 2) ~signature "request body")

let test_mac_roundtrip () =
  let keys = Keyring.create ~master:"m" in
  let src = Principal.client 0 and dst = Principal.node 3 in
  let tag = Keyring.mac keys ~src ~dst "msg" in
  Alcotest.(check int) "tag size" Keys.mac_tag_size (String.length tag);
  Alcotest.(check bool) "verifies" true (Keyring.verify_mac keys ~src ~dst ~tag "msg");
  Alcotest.(check bool) "direction-insensitive key" true
    (Keyring.verify_mac keys ~src:dst ~dst:src ~tag "msg");
  Alcotest.(check bool) "wrong peer" false
    (Keyring.verify_mac keys ~src ~dst:(Principal.node 1) ~tag "msg")

let test_authenticator () =
  let keys = Keyring.create ~master:"m" in
  let src = Principal.client 0 in
  let all = List.init 4 Principal.node in
  let auth = Keyring.authenticator keys ~src ~all "msg" in
  Alcotest.(check int) "one tag per node" 4 (List.length auth);
  List.iter
    (fun (dst, tag) ->
      Alcotest.(check bool)
        (Printf.sprintf "entry for %s verifies" (Principal.to_string dst))
        true
        (Keyring.verify_mac keys ~src ~dst ~tag "msg"))
    auth

let test_costmodel_ratios () =
  let open Costmodel in
  let p = Bftmetrics.Probe.create () in
  let mac = mac_verify p ~bytes:8 and sgn = sig_verify p ~bytes:8 in
  Alcotest.(check bool)
    "signature an order of magnitude above MAC (paper, Sec. VI-B)" true
    (sgn >= 10 * mac);
  Alcotest.(check bool) "bigger messages cost more" true
    (mac_verify p ~bytes:4096 > mac_verify p ~bytes:8);
  Alcotest.(check bool) "recv grows with size" true
    (recv ~bytes:4096 > recv ~bytes:8)

let prop_hmac_key_sensitivity =
  QCheck.Test.make ~name:"hmac differs across keys"
    QCheck.(pair string string)
    (fun (k, msg) ->
      let k' = k ^ "x" in
      Hmac.mac ~key:k msg <> Hmac.mac ~key:k' msg)

let prop_sha256_injective_on_samples =
  QCheck.Test.make ~name:"sha256 distinguishes distinct strings"
    QCheck.(pair string string)
    (fun (a, b) ->
      a = b || Sha256.digest_string a <> Sha256.digest_string b)

let prop_sha256_concat =
  QCheck.Test.make ~name:"digest_concat a b = digest_string (a ^ b)" ~count:300
    QCheck.(pair (string_of_size Gen.(0 -- 200)) (string_of_size Gen.(0 -- 200)))
    (fun (a, b) -> Sha256.digest_concat a b = Sha256.digest_string (a ^ b))

(* Pairs that share their last 8 bytes and lengths and differ only in
   front land in one memo entry, so each call evicts the last; and more
   distinct short pairs than the memo's 256 entries collide whatever
   the slot function. Every answer, fresh or remembered, must be the
   digest of the concatenation, repeated calls included. *)
let prop_sha256_memo_collisions =
  QCheck.Test.make ~name:"memoised digest_concat = digest_string (a ^ b) under collisions"
    ~count:30
    QCheck.(
      triple
        (string_of_size (Gen.return 8))
        (list_of_size Gen.(0 -- 40) (string_of_size (Gen.return 24)))
        (list_of_size
           Gen.(257 -- 400)
           (pair (string_of_size Gen.(0 -- 64)) (string_of_size Gen.(0 -- 64)))))
    (fun (tail, fronts, pairs) ->
      let colliding = List.map (fun front -> (front ^ tail, tail)) fronts in
      let all = colliding @ pairs in
      let ok (a, b) = Sha256.digest_concat a b = Sha256.digest_string (a ^ b) in
      List.for_all ok all && List.for_all ok (List.rev all) && List.for_all ok all)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "standard vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "padding boundaries" `Quick test_sha256_block_boundaries;
        Alcotest.test_case "substring" `Quick test_sha256_substring;
        Alcotest.test_case "fixture digests" `Quick test_sha256_fixture;
        Alcotest.test_case "blocks counted per domain" `Quick test_sha256_blocks_per_domain;
        Alcotest.test_case "bytes/string agree" `Quick test_sha256_bytes_string_agree;
        Alcotest.test_case "memo: a repeated call hashes nothing" `Quick
          test_sha256_memo_repeat;
        Alcotest.test_case "memo: per domain" `Quick test_sha256_memo_per_domain;
      ]
      @ qsuite
          [
            prop_sha256_injective_on_samples;
            prop_sha256_concat;
            prop_sha256_memo_collisions;
          ] );
    ( "crypto.hmac",
      [
        Alcotest.test_case "rfc4231 vectors" `Quick test_hmac_vectors;
        Alcotest.test_case "truncation and verify" `Quick test_hmac_truncated_verify;
      ]
      @ qsuite [ prop_hmac_key_sensitivity ] );
    ( "crypto.keys",
      [
        Alcotest.test_case "principal ordering" `Quick test_principal_ordering;
        Alcotest.test_case "pair keys symmetric" `Quick test_keys_pair_symmetric;
        Alcotest.test_case "deterministic derivation" `Quick test_keys_deterministic;
        Alcotest.test_case "signature roundtrip" `Quick test_signature_roundtrip;
        Alcotest.test_case "mac roundtrip" `Quick test_mac_roundtrip;
        Alcotest.test_case "authenticator" `Quick test_authenticator;
      ] );
    ( "crypto.costmodel",
      [
        Alcotest.test_case "paper cost ratios" `Quick test_costmodel_ratios;
      ] );
  ]
