(** Machine-readable performance report ([BENCH_rbft.json]).

    Runs a short evaluation pass — fault-free RBFT at 8 B and 4 kB,
    the two worst attacks, and an instrumentation-off rerun to price
    the registry's hot-path overhead — and reduces it to a JSON
    document with the headline numbers (throughput, client p50/p99,
    master-instance ordering p50/p99, relative under-attack
    throughput, self-profile). Its [host] section gives, per leg, the
    simulator's own cost per completed request as deterministic
    counts: engine events, delivered messages and minor-heap words
    allocated while the cluster ran.

    The runs of {!generate} and {!generate_scale} report to [audit]'s
    probe (and are audited when [audit] is enabled); the client sweep
    gives each point a probe of its own. Each report times its legs in
    a {!Bftmetrics.Profile} of its own, written as the [profile]
    section. *)

val generate : audit:Audit.t -> quick:bool -> string
(** Run the pass and return the JSON document. *)

val write : audit:Audit.t -> quick:bool -> path:string -> unit
(** {!generate} and write to [path] ('-' for stdout). *)

val generate_scale : audit:Audit.t -> quick:bool -> string
(** Scaling sweep ([BENCH_scale.json]): fault-free 8 B RBFT at
    f = 1, 2, 3 (4, 7 and 10 nodes; f+1 protocol instances), each at
    its calibrated saturation point, reduced to throughput and
    latency percentiles per cluster size. Each row also carries a
    [concurrent] column — the same cluster in disjoint-partition
    (bftrcc) ordering, where added instances add capacity instead of
    redundancy. *)

val write_scale : audit:Audit.t -> quick:bool -> path:string -> unit
(** {!generate_scale} and write to [path] ('-' for stdout). *)

val generate_clients : quick:bool -> string
(** Client-population capacity sweep (BENCH_clients.json): run the
    {!Bftworkload.Population} model at growing population sizes under
    a fixed aggregate load and record, per point, throughput, client
    latency percentiles, cumulative GC activity, peak live/heap words
    and the per-structure footprint-probe peaks. Quick mode sweeps
    100/1k/10k clients; full mode 1k/10k/50k. *)

val write_clients : quick:bool -> path:string -> unit
(** {!generate_clients} and write to [path] ('-' for stdout). *)
