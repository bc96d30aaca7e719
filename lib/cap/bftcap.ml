(** Memory & capacity observability: per-structure footprint read-outs
    over a run's {!Bftmetrics.Probe}, and GC/heap telemetry. *)

module Footprint = Footprint
module Gcstats = Gcstats
