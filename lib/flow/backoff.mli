(** Deterministic exponential backoff with jitter.

    Client-side policy for retrying after a BUSY reply: exponential in
    the attempt number, capped, jittered by a dedicated {!Dessim.Rng}
    stream so two runs with the same seed produce exactly the same
    retry schedule (pinned by a determinism test), and never earlier
    than the server's retry hint. *)

open Dessim

type t

val cap : Time.t
(** 100 ms: the most the deterministic part of a delay grows to. *)

val create : base:Time.t -> Rng.t -> t
(** [base] is floored at 1ns. *)

val delay : t -> attempt:int -> hint:Time.t -> Time.t
(** [delay t ~attempt ~hint] draws the wait before retry number
    [attempt] (0-based): [max hint (d + jitter)] where
    [d = min cap (base * 2^attempt)] and jitter is uniform in [0, d).
    Each call advances the rng stream. *)
