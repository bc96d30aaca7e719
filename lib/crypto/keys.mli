(** Wire sizes of the authentication a message carries.

    The simulator charges signing and MAC costs in simulated time
    through {!Costmodel} and never computes a real tag, so only the
    sizes the message-size models add are needed here. *)

val signature_size : int
(** Bytes a signature occupies on the wire (64, matching 512-bit RSA
    moduli magnitudes used by the era's BFT systems). *)

val mac_tag_size : int
(** Bytes a wire MAC tag occupies (8, UMAC-style). *)
