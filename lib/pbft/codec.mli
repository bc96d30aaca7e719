(** Binary wire codec for instance messages.

    The simulator passes messages as values and only charges for their
    {!Messages.wire_size}; this codec makes the format concrete — it
    is what the bytes on the simulated wire look like, and the tests
    check that [wire_size] agrees with the encoded length.

    With identifier ordering (RBFT), PRE-PREPAREs carry request
    identifiers only: the operation body is {e not} on the wire, so
    decoding restores every field except [op] (left empty, with
    [op_size] preserved). With [order_full_requests] the body travels
    too and the roundtrip is exact. *)

val encode : order_full_requests:bool -> Messages.t -> string

val decode : order_full_requests:bool -> string -> Messages.t option
(** [None] on malformed input (truncated, bad tag, trailing bytes). *)
