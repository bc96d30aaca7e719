(** Indexed binary min-heap keyed by [(time, sequence)], stored as
    structure of arrays: the heap orders unboxed [keys], [seqs] and
    pool-slot int arrays, and each value sits in a pool slot of its
    own, written once on push and cleared once when the entry leaves.
    Each pool slot knows its heap position, so an entry can be removed
    by the slot {!push} returned, in O(log n). Sifting moves only ints
    and never runs the write barrier. Pushing, popping and removing
    allocate nothing (the arrays double when full, starting at 64
    entries).

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
    surface first. The order is property-tested against a sorted-list
    model (random interleaved pushes, pops and removes, many equal
    keys, across the growth boundaries) in [test_sim.ml], and pinned
    end to end by the same-seed digest and state-count tests of the
    chaos explorer and the model checker. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val peak : 'a t -> int
(** The largest {!size} the heap has reached: its high-water mark. *)

val push : 'a t -> key:int -> seq:int -> 'a -> int
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)] and
    returns the pool slot that holds it: the handle {!remove} takes. A
    slot is handed out again once its entry has left the heap. *)

val min_key : 'a t -> int
(** [min_key h] is the key of the minimum entry, without removing it.
    @raise Invalid_argument if [h] is empty. *)

val pop_min : 'a t -> 'a
(** [pop_min h] removes the minimum entry and returns its value; read
    its key with {!min_key} first. The vacated pool slot is
    overwritten so the heap keeps no reference to the popped value.
    @raise Invalid_argument if [h] is empty. *)

val remove : 'a t -> int -> unit
(** [remove h slot] removes the entry {!push} put in [slot], wherever
    it sits in the heap, in O(log n), and clears the slot so the heap
    keeps no reference to its value. The other entries keep their
    [(key, seq)] priorities, so they pop in the same order as before.
    @raise Invalid_argument if no entry of [h] holds [slot]. *)

val clear : 'a t -> unit
(** [clear h] empties the heap and drops every value reference held by
    the pool. *)
