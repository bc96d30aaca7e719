(** Exporters for the metric registry and sampled time series.

    Three formats: Prometheus text exposition (scrape-compatible
    point-in-time dump), long-format CSV of a {!Sampler} series
    (one row per time/metric/labels/field), and JSON (snapshot and
    series), used by the bench's [BENCH_rbft.json] report. *)

val prometheus : Registry.t -> string
(** Text exposition format: [# HELP] / [# TYPE] headers, one line per
    child; histograms as cumulative [_bucket{le=...}] plus [_sum] and
    [_count]. *)

val csv_of_series : Sampler.t -> string
(** Header [time_s,metric,labels,field,value]; histogram samples
    expand into count/sum/mean/p50/p90/p99/max rows. *)

val json_of_snapshot : Registry.t -> string
(** JSON array of [{name, labels, value}] for the current values. *)

val json_of_samples : Registry.sample list -> string

val json_escape : string -> string
(** The one JSON string escaper, {!Event.json_escape}. *)

val json_float : float -> string
(** Shortest round-trip rendering; non-finite values become [null]. *)

val write_file : string -> string -> unit

val to_channel_or_file : path:string -> string -> unit
(** Write to [path], or to stdout when [path] is ["-"]. *)
