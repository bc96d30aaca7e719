(** All RBFT configuration in one place.

    Defaults follow the paper: n = 3f+1 nodes, f+1 protocol instances
    (proved necessary and sufficient in the companion report), the
    master instance is instance 0, and primaries are placed so that at
    most one primary runs per node.

    The record {!t} (13 fields) holds what real configurations set to
    different values: the fault bound, the paper's monitoring
    thresholds and the mode and flow-control switches. Two of its
    fields, [request_gc_age] and [monitoring_idle_prune], are inert:
    no code reads them, and they remain only because the benchmark's
    population workload sets them. Every other setting has one value
    everywhere and is a constant below or, for flow control, in
    {!Bftflow}. The model checker's planted protocol bug is a node
    fault ([Node.faults]), not a setting. *)

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
  ordering : ordering;  (** redundant (paper) or concurrent (bftrcc) *)
  admission_budget : int;
      (** flow control ({!Bftflow.Admission}): max fresh client
          requests a node admits into its pipeline at once; past the
          budget it answers BUSY with a retry hint instead of letting
          the verification queue grow without bound. [0] (the default)
          disables the gate. The retry hint's floor, the clients'
          backoff and their retransmit watchdog are the constants of
          {!Bftflow.Backoff} *)
  adaptive_batching : bool;
      (** flow control ({!Bftflow.Batcher}): primaries scale batch
          size/delay from live verification-stage backlog probes
          instead of the static {!batch_size}/[batch_delay] *)
  request_gc_age : Time.t;
      (** inert: read by no code, kept so that the benchmark's
          population workload, which sets it, builds. A node's request
          state leaves its table only by structural retirement, once
          the request is dispatched, propagated, ordered by every
          instance that orders it and executed *)
  monitoring_idle_prune : Time.t;
      (** inert: read by no code, kept so that the benchmark's
          population workload, which sets it, builds. The monitoring's
          per-client latency table is written only while Ω is on, and
          then holds one row per client seen *)
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
