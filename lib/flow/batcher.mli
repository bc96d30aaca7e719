(** Adaptive batch-size planner.

    Pure, deterministic policy mapping a live load probe — the
    {!Dessim.Resource} backlog of the stage the primary feeds plus its
    own pending-queue depth — to a (batch size, flush delay) plan. At
    low load it keeps the configured batch size and delay (batching
    adds no latency when there is no queue to amortise); as the probed
    backlog passes 2 ms the batch grows linearly with pressure up to 4
    times the configured size and the flush delay shrinks towards
    100 us, trading per-request latency it was going to lose in the
    queue anyway for per-batch amortisation. *)

open Dessim

type t

val make : batch_size:int -> batch_delay:Time.t -> t
(** [make ~batch_size ~batch_delay] plans around the configured static
    point. The adaptive batch is at most [4 * batch_size]; the flush
    delay is floored at 100 us (or [batch_delay] if that is smaller);
    adaptation starts at a probed backlog of 2 ms. *)

val plan : t -> backlog:Time.t -> depth:int -> int * Time.t
(** [plan t ~backlog ~depth] is the (batch size, flush delay) to use
    for the next flush. Monotone: size never decreases and delay never
    increases as [backlog] or [depth] grow; size is always within
    [batch_size .. 4 * batch_size]. *)
