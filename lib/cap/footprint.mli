(** Per-structure memory footprint probes.

    Every O(clients)/O(history) structure in the system — request
    tracking tables, reply caches, monitoring rings, flight-recorder
    rings, span buffers — registers a probe at creation time: a name,
    an owner, a cheap [entries] closure and a [root] closure handing
    back the structure itself for deep (reachable-words) measurement.

    Probes follow the house instrumentation contract:

    - registration is idempotent by (name, owner) — a fresh component
      rebinding the same series replaces the closures, exactly like
      {!Bftmetrics.Registry.gauge_fn};
    - the hot-path hook {!note} is a guarded no-op when the global
      gate is off (one ref read and a branch, Bechamel-pinned);
    - byte measurement via [Obj.reachable_words] only happens behind
      the separate {!set_deep} gate and only at snapshot time, never
      on a hot path or a periodic tick.

    Nested structures declare a [parent] probe; a deep snapshot
    subtracts each child's reachable words from its parent so bytes
    are exclusive and a footprint table sums without double-counting. *)

type t
(** A registered probe handle. *)

val active : unit -> bool
(** The global peak-tracking gate (one ref read). *)

val enable : unit -> unit
val disable : unit -> unit

val deep : unit -> bool
(** Whether snapshots may traverse roots with [Obj.reachable_words]. *)

val set_deep : bool -> unit

val register :
  ?owner:string ->
  ?parent:string ->
  name:string ->
  entries:(unit -> int) ->
  root:(unit -> Obj.t option) ->
  unit ->
  t
(** [register ~name ~entries ~root ()] adds (or rebinds) the probe
    [(name, owner)]. [entries] must be cheap — it is read at every
    snapshot and by the [bft_footprint_entries] callback gauge this
    call registers. [parent] names the enclosing probe for exclusive
    byte accounting. [owner] defaults to ["global"]. *)

val note : t -> unit
(** Hot-path peak tracking: when {!active}, fold the current entry
    count into the probe's peak. No-op (one load, one branch) when
    the gate is off. *)

val entries : t -> int

val peak : t -> int
(** Highest entry count ever noted or snapshotted for this probe. *)

val observe_peaks : unit -> unit
(** Fold every probe's current entry count into its peak — the
    periodic-sampler path ({!Gcstats.sample} calls this). *)

val clear : unit -> unit
(** Drop all probes (test isolation). *)

type row = {
  r_name : string;
  r_owner : string;
  r_entries : int;
  r_peak : int;
  r_bytes : int;  (** exclusive approximate bytes; [0] unless deep *)
}

val snapshot : ?deep:bool -> unit -> row list
(** Current state of every probe, sorted worst-first (bytes, then
    entries, then name). [deep] defaults to the global {!set_deep}
    gate; when on, each probe's root is measured with
    [Obj.reachable_words] and children are subtracted from parents. *)

val table : ?deep:bool -> unit -> string
(** {!snapshot} rendered as an aligned, human-readable table. *)

val peak_entries : unit -> (string * int) list
(** [("name/owner", peak)] for every probe, sorted by name — the
    per-structure peak series the client-population bench records. *)
