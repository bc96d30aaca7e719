(** Binary min-heap keyed by [(time, sequence)].

    The sequence number breaks ties between events scheduled for the
    same instant, guaranteeing FIFO order among simultaneous events and
    therefore a fully deterministic simulation.

    Precisely: entries are ordered by the strict total order
    [(key, seq) <lex (key', seq')], and the engine assigns [seq] from a
    monotonic counter, so equal-instant events pop in exactly the order
    they were pushed. This totality is load-bearing for the model
    checker ({!Bftmc}): replaying a prefix of scheduling decisions must
    reconstruct the very same simulator state, which it only does if
    the heap never has freedom in which of two simultaneous events to
    surface first. The order is property-tested (random same-key
    pushes pop in push order) and pinned by a replay-digest regression
    test in [test_sim.ml]. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val pop : 'a t -> (int * int * 'a) option
(** [pop h] removes and returns the minimum element, or [None] when the
    heap is empty. The vacated slot in the backing array is overwritten
    so the heap keeps no reference to the popped value. *)

val peek_key : 'a t -> int option
(** [peek_key h] is the smallest key without removing it. *)

val clear : 'a t -> unit
(** [clear h] empties the heap and drops every value reference held by
    the backing array. *)
