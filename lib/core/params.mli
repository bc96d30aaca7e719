(** All RBFT configuration in one place.

    Defaults follow the paper: n = 3f+1 nodes, f+1 protocol instances
    (proved necessary and sufficient in the companion report), the
    master instance is instance 0, and primaries are placed so that at
    most one primary runs per node.

    The record {!t} holds what real configurations set to different
    values: the fault bound, the paper's monitoring thresholds and the
    mode and flow-control switches. Every other setting has one value
    everywhere and is a constant below. *)

open Dessim

type recovery =
  | Change_primaries
      (** the paper's mechanism: a coordinated view change on every
          instance (Section IV-D) *)
  | Switch_master
      (** the alternative design sketched in Section IV-A (future
          work): promote the fastest backup instance to master instead
          of changing primaries; implemented as an extension and
          compared in the ablation bench *)

type ordering =
  | Redundant
      (** the paper's design: every instance orders the full request
          stream, only the master's order executes *)
  | Concurrent
      (** bftrcc ({!Bftrcc}): each instance orders a disjoint
          client-id partition and a deterministic sequencer merges the
          per-instance streams into one global execution order, so the
          f+1 instances multiply throughput instead of replicating it *)

val ordering_name : ordering -> string

type t = {
  f : int;  (** faults tolerated; n = 3f+1, instances = f+1 *)
  delta : float;
      (** Δ: minimum acceptable ratio between master throughput and the
          best backup throughput *)
  lambda : Time.t;
      (** Λ: maximal acceptable per-request ordering latency on the
          master instance; [Time.zero] disables the check *)
  omega : Time.t;
      (** Ω: maximal acceptable difference between a client's average
          latency on the master and on the backups; [Time.zero]
          disables the check *)
  batch_delay : Time.t;
      (** how long a primary waits to fill a batch of {!batch_size} *)
  order_full_requests : bool;
      (** ablation: make instances order whole requests as Aardvark
          does, instead of identifiers only *)
  recovery : recovery;
  post_vc_quiet : Time.t;
      (** recovery pause a freshly elected primary takes before fresh
          batches; zero for RBFT (its instance changes are rare and
          cheap) — used by the view-change ablation to model
          Aardvark-style recovery costs *)
  ic_quorum : int option;
      (** override of the instance-change vote quorum; [None] means the
          correct 2f+1. Anything else is a deliberately {e broken}
          protocol used by the model checker's mutation self-test
          ({!Bftmc}) to prove the checker can detect quorum bugs —
          never set it in a real configuration *)
  ordering : ordering;  (** redundant (paper) or concurrent (bftrcc) *)
  admission_budget : int;
      (** flow control ({!Bftflow.Admission}): max fresh client
          requests a node admits into its pipeline at once; past the
          budget it answers BUSY with a retry hint instead of letting
          the verification queue grow without bound. [0] (the default)
          disables the gate *)
  busy_retry_base : Time.t;
      (** floor of the retry hint carried by a BUSY reply, and the base
          of the client's exponential backoff. Must sit well above the
          admitted pipeline's turnover time (budget / throughput): a
          base far below it makes shed clients retry before any slot
          could have freed, and the re-shed traffic snowballs into a
          retry storm that starves the very stage the gate protects *)
  adaptive_batching : bool;
      (** flow control ({!Bftflow.Batcher}): primaries scale batch
          size/delay from live verification-stage backlog probes
          instead of the static {!batch_size}/[batch_delay] *)
  request_gc_age : Time.t;
      (** age after which an executed request's tracking state
          (PROPAGATE dedup votes, span ids) is swept from the request
          table on the monitoring tick. [0] (the default) disables the
          sweep, keeping the table append-only as before; population-
          scale runs enable it to bound the table at O(in-flight) *)
  monitoring_idle_prune : Time.t;
      (** drop a client's per-instance latency EMAs after this much
          inactivity, bounding the monitoring table under client churn.
          [0] (the default) disables pruning *)
}

val default : f:int -> t
(** f+1 instances, Δ = 0.95, Λ and Ω disabled, 1 ms batch delay,
    identifier ordering, redundant instances, flow control off. *)

(** {1 Constants} *)

val monitoring_period : Time.t
(** 100 ms: how often nodes compute per-instance throughput
    (Sec. IV-C). Invalid-message counts for the flood defence are reset
    at the same tick. *)

val batch_size : int
(** 64: max requests per PRE-PREPARE, and the static point adaptive
    batching grows from. *)

val checkpoint_interval : int
(** 128: batches between checkpoints of each instance. *)

val watermark_window : int
(** 1024: max batches in flight past an instance's last stable
    checkpoint. *)

val flood_threshold : int
(** 64: invalid messages from one peer within a monitoring period that
    make a node close that peer's NIC. *)

val flood_close_time : Time.t
(** 500 ms: how long a flooding peer's NIC stays closed. *)

val exec_cost : Time.t
(** 1 µs: the least virtual execution cost of one request; a service
    may charge more per operation. *)

val costs : Bftcrypto.Costmodel.t
(** {!Bftcrypto.Costmodel.default}: the CPU cost of crypto and message
    handling. *)

val reply_cache_window : int
(** 4: replies remembered per client ({!Replycache}), the last
    [window] (rid, result) pairs. Per-connection FIFO delivery makes
    per-client execution in-order, so a small window gives exact
    duplicate suppression at O(clients) memory instead of O(total
    requests ever executed). *)

val noop_interval : Time.t
(** 1 ms, concurrent mode only: an idle primary orders an empty no-op
    heartbeat batch after this long without a pre-prepare, so the
    round-robin merge never waits on a legitimately idle partition. *)

val propagate_batch : int
(** 16, concurrent mode only: max requests coalesced into one
    PROPAGATE-BATCH message (amortises per-message handling and the
    per-request MAC vector). *)

val propagate_batch_delay : Time.t
(** 300 µs, concurrent mode only: flush timer for a partial propagate
    batch. *)

val stall_change : Time.t
(** 250 ms, concurrent mode only: head-of-line merge stall age after
    which a node votes an instance change (covers a crashed or isolated
    partition owner, which the Δ-ratio check cannot see). *)

(** {1 Cluster shape} *)

val n : t -> int
(** 3f+1. *)

val instances : t -> int
(** f+1. *)

val master_instance : int
(** Index of the master instance (0). *)

val primary_of : t -> instance:int -> view:int -> int
(** The node acting as primary of [instance] in [view]; the placement
    guarantees at most one primary per node
    ([node = (view + instance) mod n]). *)
