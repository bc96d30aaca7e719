(** HMAC-SHA-256 (RFC 2104), implemented from scratch and validated
    against RFC 4231 test vectors. *)

val mac : key:string -> string -> string
(** [mac ~key msg] is the 32-byte HMAC-SHA-256 tag of [msg]. *)

val mac_truncated : key:string -> len:int -> string -> string
(** [mac_truncated ~key ~len msg] is the first [len] bytes of the tag,
    matching the short UMAC-style tags BFT implementations put on the
    wire. *)

val verify : key:string -> tag:string -> string -> bool
(** Constant-content comparison of a (possibly truncated) tag. *)
