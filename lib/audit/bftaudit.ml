(** Structured observability for the BFT simulations.

    A run's {!Bftmetrics.Probe} carries typed {!Bftmetrics.Event}s from every
    protocol layer (request flow, the three-phase ordering pipeline per
    instance, view and instance changes, monitoring verdicts,
    NIC/blacklist actions, checkpoints, network drops) to its
    subscribers. {!Auditor} subscribes and checks global safety
    invariants online; {!Liveness} watches for stalls; {!Capture}
    records events for JSONL / Chrome trace export and computes a
    deterministic per-run SHA-256 trace digest.

    Kept only for [benchmark/] (DESIGN §9): {!Auditor.attach}'s
    fallback to {!Bftmetrics.Probe.default} when given no probe, and
    {!Auditor.reset_declared}. *)

module Auditor = Auditor
module Liveness = Liveness
module Capture = Capture
