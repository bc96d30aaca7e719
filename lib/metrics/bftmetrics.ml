(** Measurement and observability utilities: low-level accumulators
    ({!Stats}, {!Hist}, {!Throughput}), the per-run instrumentation
    plane ({!Probe}) and the records it carries ({!Event}, {!Span},
    {!Tag}), a labeled-family {!Registry}, a sim-time {!Sampler},
    {!Export}ers (Prometheus text, CSV, JSON), the {!Jmini} JSON
    reader, the {!Chrome} trace writer, the bounded {!Ring} buffer and
    a wall-clock {!Profile}r for the harness.

    Kept only for [benchmark/] (DESIGN §9): [Registry.default],
    [enable] and [disable], which act on {!Probe.default}. *)

module Stats = Stats
module Hist = Hist
module Throughput = Throughput
module Event = Event
module Tag = Tag
module Span = Span
module Probe = Probe

(** {!Registry} plus the [benchmark/] entry points that act on
    {!Probe.default}. *)
module Registry = struct
  include Registry

  let default = Probe.registry Probe.default
  let enable () = Probe.set_metrics Probe.default true
  let disable () = Probe.set_metrics Probe.default false
end

module Sampler = Sampler
module Export = Export
module Jmini = Jmini
module Chrome = Chrome
module Ring = Ring
module Profile = Profile
