(** Causal per-request tracing with critical-path latency attribution.

    A run's {!Bftmetrics.Probe} records the spans, at near-zero cost
    while tracing is off: instrumentation in the client, network and
    every protocol stack opens {!Span}s tagged with a {!Tag}
    describing what the interval was spent on, linked into one tree per
    request by span ids carried inside simulated messages and CPU jobs.
    {!Tracer} reads a capture back (digest, JSONL). {!Analyze} turns a capture into per-stage latency budgets (critical
    path via a last-finisher backward walk), slowest-request
    breakdowns, per-client fairness tables, and Chrome trace_event
    exports aligned with {!Bftaudit.Capture}.

    Kept for [benchmark/] (DESIGN §9): [Tracer.enable], [disable],
    [reset] and [to_array] on {!Bftmetrics.Probe.default}, and the
    names {!Tag} and {!Span}, aliases of {!Bftmetrics.Tag} and
    {!Bftmetrics.Span}. *)

module Tag = Bftmetrics.Tag
module Span = Bftmetrics.Span
module Chunkdig = Chunkdig
module Tracer = Tracer
module Analyze = Analyze
