type t = {
  master : string;
  pair_cache : (Principal.t * Principal.t, string) Hashtbl.t;
  sign_cache : (Principal.t, string) Hashtbl.t;
}

let signature_size = 64
let mac_tag_size = 8

let create ~master = { master; pair_cache = Hashtbl.create 64; sign_cache = Hashtbl.create 64 }

let ordered_pair a b = if Principal.compare a b <= 0 then (a, b) else (b, a)

let pair_key t a b =
  let key = ordered_pair a b in
  match Hashtbl.find_opt t.pair_cache key with
  | Some k -> k
  | None ->
    let a, b = key in
    let derived =
      Hmac.mac ~key:t.master ("pair:" ^ Principal.encode a ^ ":" ^ Principal.encode b)
    in
    Hashtbl.add t.pair_cache key derived;
    derived

(* The private signing key of a principal. In this reproduction,
   signatures are keyed digests; unforgeability holds because only the
   simulator's representation of a principal ever requests its own
   signing key. *)
let signing_key t p =
  match Hashtbl.find_opt t.sign_cache p with
  | Some k -> k
  | None ->
    let derived = Hmac.mac ~key:t.master ("sign:" ^ Principal.encode p) in
    Hashtbl.add t.sign_cache p derived;
    derived

let sign t ~signer msg =
  let key = signing_key t signer in
  (* Two chained HMACs produce 64 bytes, the wire size we model. *)
  let first = Hmac.mac ~key msg in
  first ^ Hmac.mac ~key first

let verify_signature t ~signer ~signature msg =
  String.equal signature (sign t ~signer msg)

let mac t ~src ~dst msg =
  Hmac.mac_truncated ~key:(pair_key t src dst) ~len:mac_tag_size msg

let verify_mac t ~src ~dst ~tag msg =
  Hmac.verify ~key:(pair_key t src dst) ~tag msg

let authenticator t ~src ~all msg =
  List.map (fun dst -> (dst, mac t ~src ~dst msg)) all
