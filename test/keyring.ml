(* Key management as the paper assumes it: every pair of principals
   shares a symmetric MAC key, and every principal owns a signing key
   whose public part is known to everyone. All keys are derived
   deterministically from a master secret with HMAC-SHA-256, so a
   keyring is reproducible from its seed. The simulator charges these
   operations through [Bftcrypto.Costmodel] and computes none of them;
   this is the reference the crypto tests check the primitives and the
   wire sizes of [Bftcrypto.Keys] against. *)

open Bftcrypto

type t = {
  master : string;
  pair_cache : (Principal.t * Principal.t, string) Hashtbl.t;
  sign_cache : (Principal.t, string) Hashtbl.t;
}

let create ~master = { master; pair_cache = Hashtbl.create 64; sign_cache = Hashtbl.create 64 }

(* Stable rendering of a principal in key-derivation labels. *)
let encode = function
  | Principal.Node i -> Printf.sprintf "N%08x" i
  | Principal.Client i -> Printf.sprintf "C%08x" i

(* The first [len] bytes of the HMAC-SHA-256 tag: the short UMAC-style
   tags BFT implementations put on the wire. *)
let mac_truncated ~key ~len msg =
  let full = Hmac.mac ~key msg in
  assert (len > 0 && len <= String.length full);
  String.sub full 0 len

(* Compare a (possibly truncated) tag with the one [key] gives [msg]. *)
let hmac_verify ~key ~tag msg =
  String.equal (mac_truncated ~key ~len:(String.length tag) msg) tag

let ordered_pair a b = if Principal.compare a b <= 0 then (a, b) else (b, a)

(* The symmetric key shared by [a] and [b], cached after the first
   derivation. *)
let pair_key t a b =
  let key = ordered_pair a b in
  match Hashtbl.find_opt t.pair_cache key with
  | Some k -> k
  | None ->
    let a, b = key in
    let derived =
      Hmac.mac ~key:t.master ("pair:" ^ encode a ^ ":" ^ encode b)
    in
    Hashtbl.add t.pair_cache key derived;
    derived

(* The private signing key of a principal: signatures are keyed
   digests, unforgeable because only a principal asks for its own. *)
let signing_key t p =
  match Hashtbl.find_opt t.sign_cache p with
  | Some k -> k
  | None ->
    let derived = Hmac.mac ~key:t.master ("sign:" ^ encode p) in
    Hashtbl.add t.sign_cache p derived;
    derived

(* A 64-byte "signature": two chained HMACs. *)
let sign t ~signer msg =
  let key = signing_key t signer in
  let first = Hmac.mac ~key msg in
  first ^ Hmac.mac ~key first

let verify_signature t ~signer ~signature msg =
  String.equal signature (sign t ~signer msg)

(* A short wire MAC from [src] to [dst]. *)
let mac t ~src ~dst msg =
  mac_truncated ~key:(pair_key t src dst) ~len:Keys.mac_tag_size msg

let verify_mac t ~src ~dst ~tag msg =
  hmac_verify ~key:(pair_key t src dst) ~tag msg

(* A MAC authenticator: one tag per destination principal, the paper's
   ⟨m⟩μ⃗i notation. *)
let authenticator t ~src ~all msg =
  List.map (fun dst -> (dst, mac t ~src ~dst msg)) all
