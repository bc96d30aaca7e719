(** Compact set of request ids: per client, the member rids stored as
    sorted, disjoint, non-adjacent [lo, hi] ranges.

    Every stack's bookkeeping of "requests already done" (executed
    rids in {!Replycache}, delivered ids in the ordering replicas,
    signature-checked ids in Aardvark, retired request state in an
    RBFT node) inserts rids per client in nearly ascending order. A
    hashtable of ids grows with every request ever seen; this set holds
    one range per client in steady state, so its size is O(clients ×
    ranges). Transient disorder (view-change replay, degraded-mode
    fallback streams) opens extra ranges that merge away as the gaps
    fill. Membership is exact under any insertion order.

    The highest range of a client is kept in mutable fields: an
    in-order insert after the first allocates nothing. The lower ranges
    sit in two sorted int arrays: a lookup below the highest range is a
    binary search, and an out-of-order insert extends a range in place
    or shifts the ranges above it, allocating nothing once the arrays
    have grown.

    The rare non-dense client id (negative, or a Byzantine spoof far
    above the population) falls back to a side table so an adversary
    cannot force a huge array allocation. *)

open Types

(** The range set of one client. *)
module Ranges : sig
  type t

  val create : unit -> t

  val add : t -> int -> int
  (** Insert a rid; returns the change in the number of ranges (+1 a
      range opened, -1 two ranges merged, 0 otherwise). *)

  val mem : t -> int -> bool

  val to_list : t -> (int * int) list
  (** Ascending ranges. *)
end

(** Values keyed by client id: a doubling array for dense ids, a
    hashtable for the rest. *)
module Per_client : sig
  type 'a t

  val create : unit -> 'a t
  val find : 'a t -> int -> 'a option
  val add : 'a t -> int -> 'a -> unit
  (** Bind a client not yet present. *)

  val count : 'a t -> int
  val iter : (int -> 'a -> unit) -> 'a t -> unit
end

type t

val create : unit -> t
val add : t -> request_id -> unit
val mem : t -> request_id -> bool

val range_count : t -> int
(** Ranges over all clients: the set's size in entries. *)

val ranges : t -> client:int -> (int * int) list
(** The client's member rids as ascending ranges ([[]] for an unknown
    client). *)

val fold : (request_id -> 'a -> 'a) -> t -> 'a -> 'a
(** Fold over every member, in unspecified order (only meaningful at
    model-checking scale, where the sets are tiny). *)
