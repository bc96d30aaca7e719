(** Compact per-client reply cache: the executed-results table of
    every stack's node ({!Node_core}).

    Instead of one entry per request ever executed, O(total requests),
    it keeps per client (a) the set of executed rids stored as merged
    [lo, hi] ranges and (b) a small ring of the last [window]
    (rid, result) pairs for re-replies.

    The range set makes duplicate suppression {e exact under any
    execution order}: the merged execution stream is normally in
    per-client rid order (one range per client, O(clients) total),
    but degraded-mode fallback streams and view-change replay can
    deliver committed batches out of client order — transient gaps
    open extra ranges that coalesce away as they fill. Memory is
    O(clients × ranges), with ranges ≈ 1 in steady state.

    The rare non-dense client id (negative, or a Byzantine spoof far
    above the population) falls back to a side table so an adversary
    cannot force a huge array allocation. *)

type t

val create : ?window:int -> unit -> t
(** [window] is the per-client reply-ring size (default 4, min 1). *)

val mark : t -> client:int -> rid:int -> result:string -> unit
(** Record an executed request's result. *)

val seen : t -> client:int -> rid:int -> bool
(** Whether [rid] was already executed for [client]. Exact. *)

val find : t -> client:int -> rid:int -> string option
(** The cached result for a re-reply, if [rid] is still in the
    client's reply ring. A {!seen} rid whose result was evicted
    returns [None] — the client received its reply long ago (classic
    PBFT last-reply semantics). *)

val clients : t -> int
(** Clients holding at least one executed-rid record. *)

val window : t -> int

val ranges : t -> client:int -> (int * int) list
(** The client's executed rids as sorted disjoint ranges (tests and
    capacity probes; [[]] for an unknown client). *)

val fold_ids : (client:int -> rid:int -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every executed (client, rid), in unspecified order (the
    model-checker fingerprint sorts; only meaningful at model-checking
    scale where the id sets are tiny). *)
