(** One entry per table and figure of the paper's evaluation. Each
    function runs the simulation(s) and returns printable tables; the
    benchmark executable prints them all (see bench/main.ml).

    [quick] shortens windows and thins the request-size sweeps. Every
    cluster an experiment builds reports to [audit]'s probe, and each
    run is audited when [audit] is enabled. *)

val request_sizes : quick:bool -> int list
(** The x-axis of Figures 1–3, 8 and 10 (8 B – 4 kB). *)

val robustness_of_baselines : audit:Audit.t -> quick:bool -> Report.table list
(** Figures 1, 2, 3 and Table I: relative throughput of Prime,
    Aardvark and Spinning under their worst primary attacks, for
    static and dynamic loads, and the resulting maximum degradation
    table. *)

val fig7 : audit:Audit.t -> quick:bool -> Report.table list
(** Figures 7a and 7b: latency vs throughput for RBFT (TCP and UDP),
    Aardvark, Spinning and Prime at 8 B and 4 kB. *)

val fig8_9 : audit:Audit.t -> quick:bool -> Report.table list
(** Figures 8a/8b (RBFT under worst-attack-1, f = 1 and f = 2, static
    and dynamic loads) and Figure 9 (per-node monitored throughput of
    master vs backup instances during that attack). *)

val fig10_11 : audit:Audit.t -> quick:bool -> Report.table list
(** Figures 10a/10b (worst-attack-2) and Figure 11. *)

val fig12 : audit:Audit.t -> quick:bool -> Report.table
(** The unfair-primary experiment: per-request ordering latencies of
    the attacked and the untouched client, and the protocol instance
    change triggered by the Λ check. *)

val ablations : audit:Audit.t -> quick:bool -> Report.table list
(** Design-choice ablations called out in DESIGN.md: identifier vs
    full-request ordering, regular view changes forced on RBFT, the Δ
    threshold sweep, the Switch_master recovery extension, and the
    closed-loop demonstration of Section II's scoping argument. *)

val all : audit:Audit.t -> quick:bool -> Report.table list

val seed_sweep : audit:Audit.t -> quick:bool -> seeds:int -> Report.table
(** Fault-free saturated baselines of every protocol at 8 B requests,
    re-run under [seeds] different simulation seeds; reports mean,
    standard deviation and relative spread of the measured throughput
    (the [--seeds N] flag of bench/main.exe). *)
