(** Per-structure memory footprint probes.

    Every O(clients)/O(history) structure in the system — request
    tracking tables, reply caches, monitoring rings, flight-recorder
    rings, span buffers — registers a footprint on its run's probe at
    creation time ({!Bftmetrics.Probe.footprint}): a name, an owner, a
    cheap [entries] closure and a [root] closure handing back the
    structure itself for deep (reachable-words) measurement. This
    module reads them back.

    Footprints follow the house instrumentation contract:

    - registration is idempotent by (name, owner) — a fresh component
      rebinding the same series replaces the closures, exactly like
      {!Bftmetrics.Registry.gauge_fn};
    - the hot-path hook {!Bftmetrics.Probe.note} is a guarded no-op
      while the probe's footprint switch is off (one load and a
      branch, Bechamel-pinned);
    - byte measurement via [Obj.reachable_words] only happens behind
      the probe's separate deep switch and only at snapshot time,
      never on a hot path or a periodic tick.

    Nested structures declare a [parent] probe; a deep snapshot
    subtracts each child's reachable words from its parent so bytes
    are exclusive and a footprint table sums without double-counting. *)

type t = Bftmetrics.Probe.footprint
(** A registered footprint handle. *)

val peak : t -> int
(** Highest entry count ever noted or snapshotted for this footprint. *)

val observe_peaks : Bftmetrics.Probe.t -> unit
(** Fold every footprint's current entry count into its peak — the
    periodic-sampler path ({!Gcstats.sample} calls this). *)

type row = {
  r_name : string;
  r_owner : string;
  r_entries : int;
  r_peak : int;
  r_bytes : int;  (** exclusive approximate bytes; [0] unless deep *)
}

val snapshot : ?deep:bool -> Bftmetrics.Probe.t -> row list
(** Current state of every footprint on the probe, sorted worst-first
    (bytes, then entries, then name). [deep] defaults to the probe's
    deep switch; when on, each root is measured with
    [Obj.reachable_words] and children are subtracted from parents. *)

val table : ?deep:bool -> Bftmetrics.Probe.t -> string
(** {!snapshot} rendered as an aligned, human-readable table. *)

val peak_entries : Bftmetrics.Probe.t -> (string * int) list
(** [("name/owner", peak)] for every footprint, sorted by name — the
    per-structure peak series the client-population bench records. *)
