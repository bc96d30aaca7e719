(** One entry per table and figure of the paper's evaluation. Each
    group runs the simulation(s) behind one or more tables and returns
    them printable; the benchmark executable prints every group (see
    bench/main.ml) and [rbft_sim experiment] runs one.

    [quick] shortens windows and thins the request-size sweeps. Every
    cluster an experiment builds reports to [audit]'s probe, and each
    run is audited when [audit] is enabled. *)

type group = {
  label : string;  (** e.g. ["fig1/2/3+table1"]; names the group's timing line *)
  ids : string list;  (** the {!Report.table} ids [run] returns, in order *)
  run : audit:Audit.t -> quick:bool -> Report.table list;
}

val groups : group list
(** In print order:
    - Figures 1, 2, 3 and Table I: relative throughput of Prime,
      Aardvark and Spinning under their worst primary attacks, static
      and dynamic loads, and the maximum degradation table;
    - Figures 7a and 7b: latency vs throughput for RBFT (TCP and UDP),
      Aardvark, Spinning and Prime at 8 B and 4 kB;
    - Figures 8 and 9: RBFT under worst-attack-1 (f = 1 and f = 2,
      static and dynamic), and the per-node monitored throughput of
      master vs backup instances during it;
    - Figures 10 and 11: the same under worst-attack-2;
    - Figure 12: the unfair primary, per-request ordering latencies of
      the attacked and the untouched client, and the instance change
      the Λ check triggers;
    - the design-choice ablations of DESIGN.md: identifier vs
      full-request ordering, regular view changes forced on RBFT, the
      Δ sweep, the Switch_master recovery extension, and the
      closed-loop demonstration of Section II's scoping argument. *)

val find : string -> group option
(** The group with this label or table id. *)

val seed_sweep : audit:Audit.t -> quick:bool -> seeds:int -> Report.table
(** Fault-free saturated baselines of every protocol at 8 B requests,
    re-run under [seeds] different simulation seeds; reports mean,
    standard deviation and relative spread of the measured throughput
    (the [--seeds N] flag of bench/main.exe). *)
