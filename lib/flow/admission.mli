(** Bounded client admission with backpressure.

    A per-node gate over fresh client requests: up to [budget] admitted
    requests may be in flight (admitted but not yet executed); past
    that the node answers the client with a BUSY reply carrying a retry
    hint instead of letting the request queue unboundedly at the
    verification stage. Aardvark-lineage reasoning: an overloaded
    correct node should shed load explicitly rather than let its queues
    — and thus every request's latency — grow without bound.

    The gate is also the ledger of the slots: it records which request
    ids hold one, so a slot is released exactly once however many of
    the request's drop or execute paths call {!release}. *)

open Dessim
open Pbftcore.Types

type t

val create : budget:int -> t
(** [budget <= 0] disables the gate: every [admit] succeeds. *)

val enabled : t -> bool

val admit : t -> request_id -> backlog:Time.t -> (unit, Time.t) result
(** [admit t id ~backlog] claims an in-flight slot for [id], or
    returns [Error retry_after] when the budget is exhausted. [backlog]
    is the caller's live probe of the stage being protected; the
    returned retry hint is [max Backoff.base backlog] — roughly when
    the stage will have drained the work it has already accepted. *)

val holds : t -> request_id -> bool
(** Whether [id] holds a slot. *)

val release : t -> request_id -> unit
(** Return the slot [id] holds; a no-op when it holds none. Call it on
    every path that ends the request at this node (executed, dropped,
    client blacklisted). *)

val inflight : t -> int
(** The number of ids holding a slot. *)

val admitted_total : t -> int
val shed_total : t -> int

val register_probes : t -> Bftmetrics.Probe.t -> owner:string -> unit
(** Registers the footprint [node.admission_held] over the ledger. *)
