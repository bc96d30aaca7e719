let block_size = 64

let normalize_key key =
  let key =
    if String.length key > block_size then Sha256.digest_string key else key
  in
  if String.length key = block_size then key
  else key ^ String.make (block_size - String.length key) '\000'

let xor_pad key byte =
  String.init block_size (fun i -> Char.chr (Char.code key.[i] lxor byte))

let mac ~key msg =
  let key = normalize_key key in
  let ipad = xor_pad key 0x36 and opad = xor_pad key 0x5c in
  Sha256.digest_concat opad (Sha256.digest_concat ipad msg)
