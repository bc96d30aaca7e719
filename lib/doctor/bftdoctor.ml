(** Always-on incident forensics for the BFT simulations.

    {!Recorder} keeps bounded, sim-time-watermarked rings over the
    three observability streams of a run's probe (audit events, spans,
    metrics snapshots); {!Trigger} is the declarative anomaly engine
    (instance change, auditor violation, liveness stall, p99 SLO
    breach, Δ-ratio near threshold — each with debounce and cooldown);
    {!Bundle} freezes the rings into deterministic, chain-digested
    incident bundles; {!Analyze} reconstructs an incident's timeline
    and attributes its cause; {!Doctor} is the one-call attach point
    tying them together. {!Ring} and {!Jmini} are the support
    structures (bounded buffer, dependency-free JSON reader). *)

module Ring = Ring
module Jmini = Jmini
module Trigger = Trigger
module Recorder = Recorder
module Bundle = Bundle
module Analyze = Analyze
module Doctor = Doctor
