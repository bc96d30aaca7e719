(** A node's execution ledger, shared by all four stacks: how many
    requests the node executed, when (for throughput windows), and a
    chained digest of the executed sequence that correct nodes must
    agree on.

    Chaining and counting are separate steps because sharded execution
    chains a request when it is submitted, in total order, and counts
    it when its lane completes it. *)

type t

val create : unit -> t

val chain : t -> Types.request_desc -> unit
(** Fold a request into the digest: SHA-256 of the previous digest
    followed by the request digest, starting from ["genesis"]. *)

val complete :
  t -> now:Dessim.Time.t -> node:int -> instance:int -> Types.request_desc -> unit
(** Count an executed request, record it in the throughput counter,
    and emit its [Executed] audit event while the bus is live. *)

val execute :
  t -> now:Dessim.Time.t -> node:int -> instance:int -> Types.request_desc -> unit
(** [complete] then [chain]: the serial execution path. *)

val count : t -> int
val counter : t -> Bftmetrics.Throughput.t
val digest : t -> string
