(** Machine-readable performance report ([BENCH_rbft.json]).

    Runs a short evaluation pass — fault-free RBFT at 8 B and 4 kB,
    and the two worst attacks — and reduces it to a JSON
    document with the headline numbers (throughput, client p50/p99,
    master-instance ordering p50/p99, relative under-attack
    throughput, self-profile). Its [host] section gives, per leg, the
    simulator's own cost per completed request as deterministic
    counts: engine events, delivered messages, minor-heap words
    allocated and SHA-256 blocks compressed while the cluster ran, plus
    the engine heap's high-water mark ([queue_peak], in entries) and
    the summed per-node peaks of the request-state tables
    ([tracked_peak], in entries).

    Every leg is one {!Experiments.run} on a probe of its own; the legs
    of {!write} and {!write_scale} are audited when [audit] is
    enabled. Each report times its legs in a {!Bftmetrics.Profile} of
    its own, written as the [profile] section. *)

type run_result = {
  throughput : float;  (** req/s at correct node 1 *)
  p50_ms : float;  (** client end-to-end latency *)
  p99_ms : float;
  order_p50_ms : float;  (** master-instance ordering latency at node 1 *)
  order_p99_ms : float;
  host : host;
}

(** Host-side cost of one run per request a client saw completed,
    counted from the attack's installation to the end of the run. *)
and host = {
  events_per_req : float;
  msgs_per_req : float;
  minor_words_per_req : float;
  sha256_blocks_per_req : float;
  queue_peak : int;  (** the engine heap's high-water mark, in entries *)
  tracked_peak : int;
      (** {!Rbft.Node.tracked_peak} summed over the nodes: requests
          tracked at once, a count of simulated state *)
}

val static_run :
  ?attack:(Rbft.Cluster.t -> unit) ->
  ?f:int ->
  ?span_sample:int ->
  ?flavour:Flavour.t ->
  ?flow:bool ->
  audit:Audit.t ->
  with_metrics:bool ->
  quick:bool ->
  payload:int ->
  unit ->
  run_result * Bftmetrics.Probe.t
(** One report leg: [flavour] (default RBFT) at [f] (default 1) under
    a static load at its calibrated saturating rate, flow control on
    unless [flow] is false. Returns the run's numbers and its probe,
    which holds the spans of a [span_sample] > 0 leg. *)

val write : audit:Audit.t -> quick:bool -> path:string -> unit
(** Run the pass and write the JSON document to [path] ('-' for
    stdout). *)

val write_scale : audit:Audit.t -> quick:bool -> path:string -> unit
(** Scaling sweep ([BENCH_scale.json]), written to [path] ('-' for
    stdout): fault-free 8 B RBFT at f = 1, 2, 3 (4, 7 and 10 nodes;
    f+1 protocol instances), each at its calibrated saturation point,
    reduced to throughput and latency percentiles per cluster size.
    Each row also carries a [concurrent] column — the same cluster in
    disjoint-partition (bftrcc) ordering, where added instances add
    capacity instead of redundancy. *)

val generate_clients : quick:bool -> string
(** Client-population capacity sweep (BENCH_clients.json): run the
    {!Bftworkload.Population} model at growing population sizes under
    a fixed aggregate load and record, per point, throughput, client
    latency percentiles, cumulative GC activity, the live words the
    cluster's construction adds, peak live/heap words and the
    per-structure footprint-probe peaks. Quick mode sweeps
    100/1k/10k/100k clients; full mode 1k/10k/50k. *)

val write_clients : quick:bool -> path:string -> unit
(** {!generate_clients} and write to [path] ('-' for stdout). *)
