(** One replica of one ordering instance.

    Implements the 3-phase commit of PBFT as used inside RBFT
    (Section IV-B, steps 3–5): the primary batches request identifiers
    into PRE-PREPAREs; replicas answer with PREPAREs once the node they
    run on has received f+1 copies of each request; 2f matching
    PREPAREs trigger COMMITs; 2f+1 matching COMMITs make the batch
    ordered. Batches are delivered in sequence order, checkpoints
    garbage-collect the log, and view changes are triggered
    {e externally} ({!force_view_change}) — in RBFT a protocol instance
    never changes view by itself, the node's instance-change mechanism
    does it (Section IV-A); Aardvark drives the same entry point from
    its own monitoring policy.

    The replica is transport-agnostic: it emits messages through
    {!callbacks} and receives them through {!receive}. CPU costs are
    charged by the hosting node, not here. *)

open Dessim
open Types

type config = {
  n : int;
  f : int;
  replica_id : int;  (** this replica's id (= node id in RBFT) *)
  instance : int;
      (** protocol instance this replica belongs to, used to tag audit
          events (RBFT runs f+1 instances per node; single-instance
          protocols keep the default 0) *)
  primary_of_view : view -> int;
  batch_size : int;  (** max requests per PRE-PREPARE *)
  batch_delay : Time.t;  (** max wait before sending a partial batch *)
  checkpoint_interval : int;  (** batches between checkpoints *)
  watermark_window : int;  (** max batches in flight past the last stable checkpoint *)
  order_full_requests : bool;
      (** carry whole operations in PRE-PREPAREs (Aardvark) instead of
          identifiers only (RBFT) *)
  post_vc_quiet : Dessim.Time.t;
      (** time a freshly elected primary waits before issuing new
          batches, modelling the recovery cost of a view change (state
          synchronisation, history hashing); zero for RBFT *)
}

val default_config : n:int -> f:int -> replica_id:int -> config
(** Batch 64, 2 ms batch delay, checkpoint every 128 batches, window
    256, identifier ordering, primary = view mod n. *)

type callbacks = {
  broadcast : Messages.t -> unit;  (** to all other replicas of the instance *)
  deliver : seqno -> request_desc list -> unit;
      (** a batch is ordered; called in strictly increasing [seqno]
          order with duplicates (re-ordered requests) filtered out *)
  on_view_change : view -> unit;
      (** the replica moved to a new view (after NEW-VIEW processing) *)
}

(** Byzantine behaviours a faulty replica can exhibit; all default to
    benign. Mutated directly by attack scenarios. *)
type adversary = {
  mutable silent : bool;
      (** "do not take part in the protocol" (worst-attack-1, action iv) *)
  mutable pp_extra_delay : unit -> Time.t;
      (** extra delay a malicious primary adds before each
          PRE-PREPARE (the delaying attacks of Section III) *)
  mutable pp_rate_limit : unit -> float;
      (** cap, in requests per second, a malicious primary puts on the
          rate it orders — the throughput-throttling form of the same
          attacks; [0.0] (default) means unconstrained *)
  mutable client_hold : request_id -> Time.t;
      (** unfair primary: extra hold applied to a request before it
          becomes eligible for batching (Section VI-C3) *)
}

(** How the hosting node steers batching, fixed when the replica is
    created. The closures are the node's, so they read node state the
    replica never sees. *)
type hooks = {
  batch_filter : (request_desc -> bool) option;
      (** Concurrent (bftrcc) ordering: which requests this replica
          proposes when primary. A request the filter rejects is still
          tracked in the known table (so the replica can prepare batches
          proposed by others, and a later change of the node's state can
          re-admit it) but is never enqueued for batching here. [None]
          admits everything — classic redundant ordering. The node's
          filter reads its degrade state, so fallback to redundant
          ordering for a degraded partition needs no reconfiguration. *)
  batch_tuner : (unit -> int * Time.t) option;
      (** Adaptive batching: each flush decision asks the tuner for the
          (batch size, flush delay) to use instead of the static
          [batch_size]/[batch_delay] of the config. The node's tuner
          reads its live load probes (stage backlogs, queue depths — see
          {!Bftflow.Batcher}); sizes below 1 are clamped to 1. [None]
          keeps the static configuration. The tuner affects timing and
          batch boundaries only, never which requests are ordered. *)
  noop_interval : Time.t;
      (** Concurrent ordering: when primary and idle for this long,
          order an empty no-op heartbeat batch through the normal
          three-phase pipeline, so the deterministic round-robin merge
          ({!Bftrcc.Sequencer}) never waits on a legitimately idle
          partition. [Time.zero] disables the heartbeat: no timer is
          armed. *)
  noop_gate : (unit -> bool) option;
      (** Concurrent ordering: pace the no-op heartbeat. An idle primary
          consults the gate before ordering a heartbeat and holds it
          while the gate returns [false]. The node points this at its
          merge sequencer ({!Bftrcc.Sequencer.backlog}) so a stream
          already running ahead of the round-robin cursor stops emitting
          heartbeats: each one would queue behind the cursor and add a
          full merge round of latency to every later real batch of the
          stream. [None] never holds. *)
}

val no_hooks : hooks
(** No filter, no tuner, no heartbeat. *)

type t

val create :
  probe:Bftmetrics.Probe.t ->
  ?clock:Clock.t ->
  ?hooks:hooks ->
  Engine.t ->
  config ->
  callbacks ->
  t
(** The replica reports its ordering events, metrics, spans and
    footprints to [probe]. [?clock] routes the replica's local timers
    (the batch and heartbeat timers) through a skewable
    {!Dessim.Clock}; defaults to an unskewed clock on [engine].
    [?hooks] defaults to {!no_hooks}; a positive [noop_interval] arms
    the heartbeat timer here. *)

val config : t -> config
val adversary : t -> adversary

val submit : ?span:int -> t -> request_desc -> unit
(** The hosting node hands over a request that is ready for ordering
    (after the f+1 PROPAGATE guard in RBFT; after verification in
    Aardvark). Idempotent per request id.

    [?span] (default [-1]) is the parent span id of a traced request:
    on delivery the replica emits batch-wait / prepare / commit phase
    spans chained under it, and keeps the commit span id for
    {!take_span}. *)

val take_span : t -> id:request_id -> int
(** Collects (and clears) the commit span id recorded for a delivered
    traced request, so the hosting node can parent execution on the
    ordering chain; [-1] if the request was untraced or not delivered
    here. *)

val receive : t -> from:int -> Messages.t -> unit
(** An instance message arrived from peer replica [from], the
    message's authenticated source. Every vote (PREPARE, COMMIT,
    CHECKPOINT, VIEW-CHANGE) counts for [from], once per quorum. *)

val force_view_change : t -> unit
(** Start moving to the next view. Safe to call repeatedly; subsequent
    calls while a change is in progress are ignored. *)

val view : t -> view
val is_primary : t -> bool
val current_primary : t -> int
val in_view_change : t -> bool

val ordered_count : t -> int
(** Requests delivered so far (the monitoring counter [nbreqs] of
    Section IV-C). *)

val last_delivered_seq : t -> seqno
val pending_count : t -> int
(** Requests known (submitted, or learned from a PRE-PREPARE) but not
    yet delivered: the pool a new primary re-batches, which drops each
    request as it is delivered. *)

val known_peak : t -> int
(** The most requests {!pending_count} has held at once. *)

val view_changes_completed : t -> int

val last_stable : t -> seqno
(** Sequence number of the last stable checkpoint (garbage-collection
    floor). *)

val state_transfers : t -> int
(** How many times this replica adopted a stable checkpoint wholesale
    because it had fallen behind (PBFT state transfer). A replica that
    state-transferred did not locally deliver the skipped batches. *)

val debug_live_seqs : t -> seqno list
(** Ascending sequence numbers currently held in the entry log, for
    tests pinning the checkpoint garbage collection. *)

val fingerprint : t -> string
(** Canonical, printable rendering of the protocol-relevant state:
    view/sequence counters, every live entry with its votes and phase
    flags, the pending batch, view-change and checkpoint votes, and
    parked PRE-PREPAREs — all in a fixed order, with no wall-clock or
    metric state. Two replicas with equal fingerprints behave
    identically under any future schedule; the model checker
    ({!Bftmc}) hashes this into its visited-state set. *)

val register_probes : t -> owner:string -> unit
(** Register footprints ({!Bftmetrics.Probe.footprint}) over the replica's per-seqno
    ordering log, its submitted-request pool and its delivered-id set,
    labelled with [owner] (e.g. ["node-1/i0"]). *)
