(** HMAC-SHA-256 (RFC 2104), implemented from scratch and validated
    against RFC 4231 test vectors. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA-256 tag of [msg]. *)
