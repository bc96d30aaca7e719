(** The client's retry schedule under flow control.

    Retrying after a BUSY reply is exponential in the attempt number,
    capped, jittered by a dedicated {!Dessim.Rng} stream so two runs
    with the same seed produce exactly the same retry schedule (pinned
    by a determinism test), and never earlier than the server's retry
    hint. Every timing of the schedule derives from {!base}: the
    admission gate floors its retry hint at it, and the client's
    retransmit watchdog starts at {!watchdog_first} and doubles up to
    {!watchdog_cap}. *)

open Dessim

type t

val base : Time.t
(** 10 ms: the first backoff step and the floor of a BUSY retry hint.
    It sits well above the admitted pipeline's turnover time (budget /
    throughput): a base far below it makes shed clients retry before
    any slot could have freed, and the re-shed traffic snowballs into a
    retry storm that starves the very stage the gate protects. *)

val cap : Time.t
(** 100 ms: the most the deterministic part of a delay grows to. *)

val watchdog_first : Time.t
(** 160 ms (16 x {!base}): when a flow-controlled client first
    retransmits a request nobody has answered. *)

val watchdog_cap : Time.t
(** 1.28 s (128 x {!base}): the most the doubling retransmit timeout
    grows to. *)

val create : Rng.t -> t

val delay : t -> attempt:int -> hint:Time.t -> Time.t
(** [delay t ~attempt ~hint] draws the wait before retry number
    [attempt] (0-based): [max hint (d + jitter)] where
    [d = min cap (base * 2^attempt)] and jitter is uniform in [0, d).
    Each call advances the rng stream. *)
