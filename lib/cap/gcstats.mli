(** GC / heap telemetry: [Gc.quick_stat] sampling, sliding-window
    growth analysis, metric families and Chrome-trace counter series.

    A sampler owns a baseline [Gc.stat] captured at creation and a
    window of the last 256 timestamped samples ({!samples},
    {!growth}); {!deltas}, {!sample_count} and the peaks cover every
    sample. Each {!sample} also folds the current {!Footprint} probe
    entry counts into the window, so growth analysis can name the
    fastest-growing structure (the culprit [rbft_sim run --cap]
    prints).

    [read_stat] is injectable so a test can fabricate a deterministic
    heap trajectory; the default is [Gc.quick_stat] (cheap, no heap
    traversal) with [minor_words] from [Gc.minor_words ()], which counts
    every word allocated so far (under OCaml 5.1 [Gc.quick_stat]'s own
    field only advances at minor collections).

    The [bft_gc_*] callback gauges go only into a registry the caller
    names ({!register_gauges}), never the probe's: GC word counts are
    wall-runtime state, not sim state, and in the probe's registry
    they would leak into the flight recorder's snapshots and break
    byte-identical incident-bundle replays. *)

open Dessim

type sample = {
  s_at : Time.t;
  s_minor_collections : int;  (** cumulative since process start *)
  s_major_collections : int;
  s_compactions : int;
  s_minor_words : float;  (** cumulative allocation in the minor heap *)
  s_promoted_words : float;
  s_heap_words : int;
  s_live_words : int;  (** as of the last major GC ([Gc.quick_stat]) *)
  s_entries : (string * int) list;  (** footprint probe entries, sorted *)
}

type t

val create : ?read_stat:(unit -> Gc.stat) -> Bftmetrics.Probe.t -> t
(** Telemetry over the process heap, reading the footprints of
    [probe]. *)

val register_gauges : t -> Bftmetrics.Registry.t -> unit
(** Register the [bft_gc_*] callback gauges in a registry of host-clock
    series: one the exporters read and the flight recorder does not
    (not the probe's). *)

val sample : t -> now:Time.t -> unit
(** Take one sample: read the stat, capture probe entries, fold
    footprint peaks ({!Footprint.observe_peaks}). *)

val last : t -> sample option

val samples : t -> sample list
(** Window contents, oldest first. *)

val sample_count : t -> int
(** Total samples ever taken. *)

val baseline : t -> Gc.stat

val deltas : t -> (string * float) list
(** Cumulative GC activity between the baseline and the latest
    sample: minor/major collections, minor/promoted words — the
    per-point GC cost a bench records. Empty before the first
    sample. *)

val peak_live_words : t -> int
val peak_heap_words : t -> int

type growth = {
  g_span : Time.t;  (** window time span *)
  g_live_slope : float;  (** live words per second over the window *)
  g_heap_slope : float;
  g_alloc_rate : float;  (** minor words per second over the window *)
  g_culprit : (string * float) option;
      (** fastest-growing probe ("name/owner", entries per second) *)
}

val growth : t -> growth option
(** [None] until the window holds two samples spanning nonzero time. *)

val write_chrome_counters : t -> string -> unit
(** Write the window as a standalone Chrome trace_event JSON file of
    counter events (open in chrome://tracing or Perfetto). *)
