(** Sim-time periodic sampler: snapshots a {!Registry} into a time
    series that the CSV/JSON exporters can dump after the run.

    Sampling is anchored to {e engine} sim-time: ticks fire at the
    absolute instants [epoch + k*period] (epoch = the attach instant),
    not relative to the previous callback and never through a per-node
    [Dessim.Clock]. Chaos clock-skew faults therefore cannot drift the
    series — a skewed and an unskewed same-seed run sample at
    identical timestamps.

    Values move only while the owning probe's metrics are on
    ({!Probe.set_metrics}); the sampler does not turn them on. The
    rearming tick keeps the engine's queue non-empty, so drive the
    simulation with [Engine.run ~until] (as the clusters' [run_for]
    does) and {!detach} before draining a queue to empty. *)

open Dessim

type t

type point = { p_time : Time.t; p_samples : Registry.sample list }

val attach : ?period:Time.t -> Engine.t -> Registry.t -> t
(** Snapshot every [period] (default 100 ms of virtual time). *)

val detach : t -> unit
(** Stop sampling (the pending tick becomes a no-op). *)

val sample_now : t -> unit
(** Take an extra snapshot at the current virtual time, e.g. one last
    point at the end of a run. *)

val period : t -> Time.t

val epoch : t -> Time.t
(** The attach instant; every periodic sample lands at
    [epoch + k*period] exactly. *)

val points : t -> point list
(** Oldest first. *)

val count : t -> int
