(** Binary min-heap keyed by [(time, sequence)], stored as structure
    of arrays: the heap orders unboxed [keys], [seqs] and pool-slot int
    arrays, and each value sits in a pool slot of its own, written once
    on push and cleared once on pop. Sifting therefore moves only ints
    and never runs the write barrier. Pushing and popping allocate
    nothing (the arrays double when full, starting at 64 entries).

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
    model (random interleaved pushes, pops and sweeps, many equal keys,
    across the growth boundaries) in [test_sim.ml], and pinned end to
    end by the same-seed digest and state-count tests of the chaos
    explorer and the model checker. *)

type 'a t

val create : unit -> 'a t

val size : 'a t -> int

val is_empty : 'a t -> bool

val peak : 'a t -> int
(** The largest {!size} the heap has reached: its high-water mark. *)

val push : 'a t -> key:int -> seq:int -> 'a -> unit
(** [push h ~key ~seq v] inserts [v] with priority [(key, seq)]. *)

val min_key : 'a t -> int
(** [min_key h] is the key of the minimum entry, without removing it.
    @raise Invalid_argument if [h] is empty. *)

val pop_min : 'a t -> 'a
(** [pop_min h] removes the minimum entry and returns its value; read
    its key with {!min_key} first. The vacated pool slot is
    overwritten so the heap keeps no reference to the popped value.
    @raise Invalid_argument if [h] is empty. *)

val sweep : 'a t -> keep:('a -> bool) -> unit
(** [sweep h ~keep] removes every entry whose value fails [keep] (called
    once per entry) and clears its pool slot. The survivors keep their
    [(key, seq)] priorities, so they pop in the same order as before.
    O([size h]). *)

val clear : 'a t -> unit
(** [clear h] empties the heap and drops every value reference held by
    the pool. *)
