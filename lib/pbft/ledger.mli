(** A node's execution ledger, shared by all four stacks: how many
    requests the node executed, when (for throughput windows), and a
    chained digest of the executed sequence that correct nodes must
    agree on. *)

type t

val create : Bftmetrics.Probe.t -> t
(** An empty ledger whose executions are reported to the probe. *)

val execute :
  t -> now:Dessim.Time.t -> node:int -> instance:int -> Types.request_desc -> unit
(** Count an executed request, record it in the throughput counter,
    emit its [Executed] audit event while the bus is live, and fold it
    into the digest: SHA-256 of the previous digest followed by the
    request digest, starting from ["genesis"]. *)

val count : t -> int
val counter : t -> Bftmetrics.Throughput.t
val digest : t -> string
