(** Compact per-client reply cache: the executed-results table of
    every stack's node ({!Node_core}).

    Instead of one entry per request ever executed, O(total requests),
    it keeps per client (a) the set of executed rids as merged ranges
    ({!Idset.Ranges}: exact under any execution order, one range per
    client in steady state) and (b) a small ring of the last [window]
    (rid, result) pairs for re-replies. Clients are stored as in
    {!Idset.Per_client}, so a spoofed client id cannot force a huge
    allocation. *)

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
