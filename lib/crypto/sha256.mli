(** SHA-256 (FIPS 180-4), implemented from scratch.

    The simulation only needs digests for request identifiers and MACs,
    but we implement the real function (validated against the standard
    test vectors) so that the library is usable outside the simulator
    and so that digests have realistic collision behaviour. *)

type t = string
(** A 32-byte binary digest. *)

val digest_bytes : bytes -> t
val digest_string : string -> t

val digest_substring : string -> pos:int -> len:int -> t

val digest_concat : string -> string -> t
(** [digest_concat a b = digest_string (a ^ b)], without building
    [a ^ b]: the shape of a hash chain's step. Results for short inputs
    (at most 128 bytes together) are remembered in a small per-domain
    memo keyed on both inputs in full, so a step another node of the
    run has just taken costs a lookup and no hashing. *)

val blocks_hashed : unit -> int
(** 64-byte blocks compressed so far by the calling domain (each
    digest of [n] bytes compresses [(n + 8) / 64 + 1]; a memo hit
    compresses none). A per-domain count, read as a difference around
    a run. *)

val to_hex : t -> string
(** Lowercase hexadecimal rendering (64 characters). *)

val size : int
(** Digest size in bytes (32). *)
