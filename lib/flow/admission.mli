(** Bounded client admission with backpressure.

    A per-node gate over fresh client requests: up to [budget] admitted
    requests may be in flight (admitted but not yet executed); past
    that the node answers the client with a BUSY reply carrying a retry
    hint instead of letting the request queue unboundedly at the
    verification stage. Aardvark-lineage reasoning: an overloaded
    correct node should shed load explicitly rather than let its queues
    — and thus every request's latency — grow without bound. *)

open Dessim

type t

val create : budget:int -> retry_base:Time.t -> t
(** [budget <= 0] disables the gate: every [admit] succeeds. *)

val enabled : t -> bool

val admit : t -> backlog:Time.t -> (unit, Time.t) result
(** [admit t ~backlog] claims an in-flight slot, or returns
    [Error retry_after] when the budget is exhausted. [backlog] is the
    caller's live probe of the stage being protected; the returned
    retry hint is [max retry_base backlog] — roughly when the stage
    will have drained the work it has already accepted. *)

val release : t -> unit
(** Return a slot claimed by a successful {!admit}; call exactly once
    per admitted request when it finishes executing (or is dropped). *)

val inflight : t -> int

val admitted_total : t -> int
val shed_total : t -> int
