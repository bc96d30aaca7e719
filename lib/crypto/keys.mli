(** Key management for the replicated system.

    A {!t} plays the role of the deployment-time key distribution the
    paper assumes: every pair of principals shares a symmetric MAC key,
    and every principal owns a signing key whose public part is known
    to everyone. All keys are derived deterministically from a master
    secret with HMAC-SHA-256, so a registry is reproducible from its
    seed. *)

type t

val create : master:string -> t
(** [create ~master] derives all keys from the master secret. *)

val pair_key : t -> Principal.t -> Principal.t -> string
(** [pair_key t a b] is the symmetric key shared by [a] and [b]
    (symmetric in its arguments). Keys are cached after the first
    derivation. *)

val sign : t -> signer:Principal.t -> string -> string
(** [sign t ~signer msg] is a 64-byte "signature" of [msg]. *)

val verify_signature : t -> signer:Principal.t -> signature:string -> string -> bool

val signature_size : int
(** Bytes a signature occupies on the wire (64, matching 512-bit RSA
    moduli magnitudes used by the era's BFT systems). *)

val mac_tag_size : int
(** Bytes a wire MAC tag occupies (8, UMAC-style). *)

val mac : t -> src:Principal.t -> dst:Principal.t -> string -> string
(** Short wire MAC from [src] to [dst]. *)

val verify_mac : t -> src:Principal.t -> dst:Principal.t -> tag:string -> string -> bool

val authenticator : t -> src:Principal.t -> all:Principal.t list -> string -> (Principal.t * string) list
(** MAC authenticator: one tag per destination principal, as in the
    paper's [⟨m⟩μ⃗i] notation. *)
