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
  send : int -> Messages.t -> unit;  (** unicast to a peer replica *)
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

type t

val create :
  probe:Bftmetrics.Probe.t -> ?clock:Clock.t -> Engine.t -> config -> callbacks -> t
(** The replica reports its ordering events, metrics, spans and
    footprints to [probe]. [?clock] routes the replica's local timers (the batch timer) through
    a skewable {!Dessim.Clock}; defaults to an unskewed clock on
    [engine]. *)

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

val set_batch_filter : t -> (request_desc -> bool) option -> unit
(** Concurrent (bftrcc) ordering: restrict which requests this replica
    proposes when primary. A request the filter rejects is still
    tracked in the known table (so the replica can prepare batches
    proposed by others, and a later filter change can re-admit it) but
    is never enqueued for batching here. [None] (the default) admits
    everything — classic redundant ordering. The node owning the
    replica supplies a closure over its degrade state, so fallback to
    redundant ordering for a degraded partition needs no
    reconfiguration. *)

val set_batch_tuner : t -> (unit -> int * Time.t) option -> unit
(** Adaptive batching: when set, each flush decision asks the tuner
    for the (batch size, flush delay) to use instead of the static
    [batch_size]/[batch_delay] of the config. The hosting node
    supplies a closure over its live load probes (stage backlogs,
    queue depths — see {!Bftflow.Batcher}); sizes below 1 are clamped
    to 1. [None] (the default) keeps the static configuration. The
    tuner affects timing and batch boundaries only, never which
    requests are ordered. *)

val set_noop_interval : t -> Time.t -> unit
(** Concurrent ordering: when primary and idle for this long, order an
    empty no-op heartbeat batch through the normal three-phase
    pipeline, so the deterministic round-robin merge
    ({!Bftrcc.Sequencer}) never waits on a legitimately idle
    partition. [Time.zero] (the default) disables the heartbeat; the
    timer is armed on the first transition to a positive interval. *)

val set_noop_gate : t -> (unit -> bool) option -> unit
(** Concurrent ordering: pace the no-op heartbeat. When set, an idle
    primary consults the gate before ordering a heartbeat and holds it
    while the gate returns [false]. The hosting node points this at
    its merge sequencer ({!Bftrcc.Sequencer.backlog}) so a stream
    already running ahead of the round-robin cursor stops emitting
    heartbeats: each one would queue behind the cursor and add a full
    merge round of latency to every later real batch of the stream.
    [None] (the default) never holds. *)

val last_pp_at : t -> Time.t
(** Instant of the last pre-prepare this replica issued as primary
    (real batch or no-op heartbeat); [Time.zero] if none yet. *)

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
(** Requests submitted but not yet delivered. *)

val view_changes_completed : t -> int

val last_stable : t -> seqno
(** Sequence number of the last stable checkpoint (garbage-collection
    floor). *)

val state_transfers : t -> int
(** How many times this replica adopted a stable checkpoint wholesale
    because it had fallen behind (PBFT state transfer). A replica that
    state-transferred did not locally deliver the skipped batches. *)

val debug_dump : t -> string
(** One-line internal state summary (sequence counters, watermarks,
    the entry blocking delivery), for development probes and failure
    reports in tests. *)

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
