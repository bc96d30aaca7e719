(** Binary wire codec for RBFT's node-level messages (Figure 5).

    Complements {!Pbftcore.Codec} for the per-instance traffic;
    REQUEST/PROPAGATE/REPLY and INSTANCE-CHANGE are node-level.
    Authentication material travels as placeholder bytes of the real
    size (a signature slot and a one-byte validity marker standing for
    the simulator's validity flags); the tests check the encoded
    length matches {!Messages.wire_size} up to the authenticated
    envelope the network frames add: the MAC authenticator and the
    sender's id. *)

val encode : order_full_requests:bool -> Messages.t -> string
val decode : order_full_requests:bool -> string -> Messages.t option
