(** One entry per table and figure of the paper's evaluation. Each
    group runs the simulation(s) behind one or more tables and returns
    them printable; the benchmark executable prints every group (see
    bench/main.ml) and [rbft_sim experiment] runs one.

    [quick] shortens windows and thins the request-size sweeps. Every
    run builds its cluster on a probe of its own, and is audited when
    [audit] is enabled. *)

type load = Shape of Bftworkload.Loadshape.t | Population of Bftworkload.Population.t

type 'c run = {
  cluster : 'c;
  throughput : float;  (** executed req/s at correct node 1 over the window *)
  latencies : Bftmetrics.Hist.t option;
      (** every client's end-to-end latencies (seconds) merged; [None]
          when no client completed a request *)
}

val run :
  ?audit:Audit.t ->
  ?metrics:bool ->
  ?span_sample:int ->
  ?footprints:bool ->
  ?attack:('c -> unit) ->
  ?from_:Dessim.Time.t ->
  ?until:Dessim.Time.t ->
  (module Pbftcore.Cluster_core.STACK with type Cluster.t = 'c) ->
  f:int ->
  load:load ->
  (probe:Bftmetrics.Probe.t -> int -> 'c) ->
  'c run
(** One measured run. A fresh probe is created with metrics, 1/N
    spans ([span_sample] > 0) and footprints switched on as asked
    (default: all off), and an auditor is attached to it when [audit]
    is enabled. The builder makes the cluster on that probe for the
    load's client count; [attack] (default: none) is installed on it,
    the load is applied, and the cluster runs to the end of the load
    plus a 200 ms drain. The throughput window runs from [from_]
    (default 200 ms) to [until] (default: the end of the load).
    Attacks declare their faulty nodes on the cluster's probe. *)

val unfair_primary :
  ?audit:Audit.t -> unit -> (int * int * Dessim.Time.t) list * Rbft.Cluster.t
(** Figure 12's scenario: 2 clients at 350 req/s each with 4 kB
    requests, Λ = 1.5 ms and f = 1, for 3 s. The master primary
    (node 0) is fair for 500 requests, then holds client 0's requests
    0.5 ms, then 1 ms from request 1000. Returns every master-instance
    ordering latency correct node 1 observed, in order, as
    (ordinal from 1, client, latency), and the cluster. *)

val latencies_ms :
  (int * int * Dessim.Time.t) list -> lo:int -> hi:int -> client:int -> Bftmetrics.Stats.t
(** The latencies, in ms, of [client]'s samples with ordinal in [[lo, hi)]. *)

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
