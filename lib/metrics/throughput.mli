(** Windowed event counting for throughput measurement.

    Mirrors the paper's monitoring mechanism: a counter is bumped per
    ordered/executed request and sampled periodically; it also serves
    the harness' measurement windows (count events inside
    [\[start, stop)] and divide by the window length).

    A window holds one breakpoint (time, cumulative count) per distinct
    instant. The newest is kept whole; the older ones are delta-encoded
    as two LEB128 varints each in 255-byte chunks, with each chunk's
    first breakpoint kept whole beside it. A breakpoint costs a few
    bytes: 4 at 28 µs spacing with one event each, about 0.57 words
    with the chunk's header and index. Nothing is copied as the window
    grows but the chunk index (three words per chunk). A query
    binary-searches the chunks and decodes one, so counts are exact.
    An unused window is its record of four words; the first record
    allocates nothing, the second instant allocates the first chunk. *)

type t

val create : unit -> t

val record : t -> now:Dessim.Time.t -> unit
(** Count one event at virtual time [now]. Events should be recorded
    in non-decreasing time order (the simulator guarantees this); a
    record whose [now] is earlier than the latest one is clamped to
    that latest time rather than corrupting later queries. *)

val record_many : t -> now:Dessim.Time.t -> int -> unit

val total : t -> int

val count_between : t -> Dessim.Time.t -> Dessim.Time.t -> int
(** Events in the half-open window [start <= time < stop]. Windows
    tile exactly: [count_between t a b + count_between t b c =
    count_between t a c] for [a <= b <= c], and a partition of
    [\[zero, horizon)] with [horizon] strictly past the last event
    sums to {!total}. Empty and reversed windows return 0. *)

val rate_between : t -> Dessim.Time.t -> Dessim.Time.t -> float
(** Events per second over the window; 0.0 (never NaN, never raises)
    for zero-length or reversed windows. *)
