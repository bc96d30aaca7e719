(** Always-on incident forensics for the BFT simulations.

    {!Recorder} keeps bounded, sim-time-watermarked rings
    ({!Bftmetrics.Ring}) over the three observability streams of a
    run's probe (audit events, spans, metrics snapshots); {!Trigger}
    is the declarative anomaly engine (instance change, auditor
    violation, NIC closure, liveness stall, Δ-ratio near threshold,
    sequencer stall — each with debounce and cooldown); {!Bundle}
    freezes the rings into deterministic, chain-digested incident
    bundles; {!Analyze} reconstructs an incident's timeline and
    attributes its cause; {!Doctor} is the one-call attach point tying
    them together.

    Kept only for [benchmark/] (DESIGN §9): [Jmini], the JSON reader
    {!Bftmetrics.Jmini} under the name [benchmark/] reads it by. *)

module Jmini = Bftmetrics.Jmini
module Trigger = Trigger
module Recorder = Recorder
module Bundle = Bundle
module Analyze = Analyze
module Doctor = Doctor
