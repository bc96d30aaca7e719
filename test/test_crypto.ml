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
  let tag = Hmac.mac_truncated ~key ~len:8 msg in
  Alcotest.(check int) "tag length" 8 (String.length tag);
  Alcotest.(check bool) "verifies" true (Hmac.verify ~key ~tag msg);
  Alcotest.(check bool) "rejects other message" false (Hmac.verify ~key ~tag "other");
  Alcotest.(check bool) "rejects other key" false (Hmac.verify ~key:"wrong" ~tag msg)

let test_principal_ordering () =
  let open Principal in
  Alcotest.(check bool) "node < client" true (compare (node 5) (client 0) < 0);
  Alcotest.(check bool) "node order" true (compare (node 1) (node 2) < 0);
  Alcotest.(check bool) "equal" true (equal (client 3) (client 3));
  Alcotest.(check string) "pp node" "node2" (to_string (node 2));
  Alcotest.(check string) "pp client" "client7" (to_string (client 7));
  Alcotest.(check bool) "encode distinct" true (encode (node 1) <> encode (client 1))

let test_keys_pair_symmetric () =
  let keys = Keys.create ~master:"m" in
  let a = Principal.node 0 and b = Principal.client 4 in
  Alcotest.(check string) "symmetric" (Keys.pair_key keys a b) (Keys.pair_key keys b a);
  Alcotest.(check bool) "distinct pairs" true
    (Keys.pair_key keys a b <> Keys.pair_key keys a (Principal.client 5))

let test_keys_deterministic () =
  let k1 = Keys.create ~master:"seed" and k2 = Keys.create ~master:"seed" in
  let a = Principal.node 1 and b = Principal.node 2 in
  Alcotest.(check string) "same master same keys" (Keys.pair_key k1 a b) (Keys.pair_key k2 a b);
  let k3 = Keys.create ~master:"other" in
  Alcotest.(check bool) "different master different keys" true
    (Keys.pair_key k1 a b <> Keys.pair_key k3 a b)

let test_signature_roundtrip () =
  let keys = Keys.create ~master:"m" in
  let signer = Principal.client 1 in
  let signature = Keys.sign keys ~signer "request body" in
  Alcotest.(check int) "size" Keys.signature_size (String.length signature);
  Alcotest.(check bool) "verifies" true
    (Keys.verify_signature keys ~signer ~signature "request body");
  Alcotest.(check bool) "wrong message" false
    (Keys.verify_signature keys ~signer ~signature "tampered");
  Alcotest.(check bool) "wrong signer" false
    (Keys.verify_signature keys ~signer:(Principal.client 2) ~signature "request body")

let test_mac_roundtrip () =
  let keys = Keys.create ~master:"m" in
  let src = Principal.client 0 and dst = Principal.node 3 in
  let tag = Keys.mac keys ~src ~dst "msg" in
  Alcotest.(check int) "tag size" Keys.mac_tag_size (String.length tag);
  Alcotest.(check bool) "verifies" true (Keys.verify_mac keys ~src ~dst ~tag "msg");
  Alcotest.(check bool) "direction-insensitive key" true
    (Keys.verify_mac keys ~src:dst ~dst:src ~tag "msg");
  Alcotest.(check bool) "wrong peer" false
    (Keys.verify_mac keys ~src ~dst:(Principal.node 1) ~tag "msg")

let test_authenticator () =
  let keys = Keys.create ~master:"m" in
  let src = Principal.client 0 in
  let all = List.init 4 Principal.node in
  let auth = Keys.authenticator keys ~src ~all "msg" in
  Alcotest.(check int) "one tag per node" 4 (List.length auth);
  List.iter
    (fun (dst, tag) ->
      Alcotest.(check bool)
        (Printf.sprintf "entry for %s verifies" (Principal.to_string dst))
        true
        (Keys.verify_mac keys ~src ~dst ~tag "msg"))
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

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "crypto.sha256",
      [
        Alcotest.test_case "standard vectors" `Quick test_sha256_vectors;
        Alcotest.test_case "padding boundaries" `Quick test_sha256_block_boundaries;
        Alcotest.test_case "substring" `Quick test_sha256_substring;
        Alcotest.test_case "bytes/string agree" `Quick test_sha256_bytes_string_agree;
      ]
      @ qsuite [ prop_sha256_injective_on_samples ] );
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
