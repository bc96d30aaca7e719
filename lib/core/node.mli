(** An RBFT node: one of the 3f+1 physical machines.

    Mirrors the architecture of the paper's Figure 6. Each node runs
    four module threads — Verification, Propagation, Dispatch &
    Monitoring, Execution — plus one replica process per protocol
    instance, each pinned to its own core (modelled as a
    {!Dessim.Resource.t}). The node owns one NIC per peer node and one
    client-facing NIC (provided by {!Bftnet.Network}).

    Responsibilities, matching Section IV-B:
    + verify client REQUESTs (MAC, then signature; invalid signatures
      blacklist the client),
    + PROPAGATE verified requests to all nodes and collect f+1 copies
      before handing requests to the local replicas,
    + host the f+1 protocol-instance replicas,
    + monitor per-instance throughput and latency and run the
      protocol-instance-change protocol of Section IV-D,
    + execute master-ordered requests and REPLY to clients,
    + defend against floods by closing the NIC of a peer that sends
      too many invalid messages. *)

open Dessim
open Bftapp

type t

val create :
  Engine.t -> Messages.t Bftnet.Network.t -> Params.t -> id:int -> service:Service.t -> t
(** Registers the node's handler on the network. Call {!start} to arm
    the monitoring timer (and the flooding processes of faulty
    nodes). *)

val start : t -> unit

val id : t -> int
val params : t -> Params.t

(** {1 Fault injection}

    Scripted Byzantine behaviours. All default to benign. An attack is
    an {!Attacks.plan}; {!Attacks.install} writes this record and the
    per-replica adversaries ({!Pbftcore.Replica.adversary}). *)

type faults = {
  mutable flood_targets : int list;
      (** peers to flood with junk PROPAGATEs of maximal size, 9,000 bytes *)
  mutable flood_rate : float;  (** junk messages per second, per target *)
  mutable no_propagate : bool;
      (** do not take part in the PROPAGATE phase (worst-attack-2) *)
  mutable drop_client_requests : bool;
      (** ignore REQUESTs arriving straight from clients *)
  mutable ic_quorum : int option;
      (** override of the instance-change vote quorum; [None] means the
          correct 2f+1. Anything else is a deliberately {e broken}
          protocol: the [ic-quorum-low] mutation of the model checker's
          self-test ({!Bftmc}) and of chaos scenarios sets it to 1 on
          every node, to prove the checker detects quorum bugs *)
}

val faults : t -> faults

val replica : t -> instance:int -> Pbftcore.Replica.t
(** The local replica of a protocol instance ([0] = master). *)

val monitoring : t -> Monitoring.t

(** {1 Observability} *)

val master_instance : t -> int
(** Which instance is currently master (always [0] under
    [Change_primaries]; moves under the [Switch_master] extension). *)

val ledger : t -> Pbftcore.Ledger.t
(** Executed count, throughput counter and chained execution digest;
    the three accessors below read it. *)

val executed_count : t -> int
(** Requests executed (master-ordered), the node-level throughput
    counter used by the harness. *)

val executed_counter : t -> Bftmetrics.Throughput.t
(** Windowed view of executions, for measurement. *)

val execution_digest : t -> string
(** Chained digest of the executed sequence; equal across correct
    nodes (safety check in tests). *)

val cpi : t -> int
(** Current protocol-instance-change counter (Section IV-D). *)

val instance_changes : t -> int
(** Completed protocol instance changes. *)

val suspicious : t -> bool
(** Latest monitoring verdict: whether this node currently suspects
    the master instance's primary. *)

val ic_vote_count : t -> int
(** Distinct INSTANCE-CHANGE votes covering the current [cpi]. *)

val ic_vote_cpi_of : t -> node:int -> int
(** Highest cpi node [node] has voted an instance change for, as seen
    by this node ([-1] = never voted; out-of-range ids also [-1]).
    Together with {!ic_vote_count} this lets tests pin the vote-set
    rebuild across cpi advances. *)

val admission_inflight : t -> int
(** Admitted client requests currently holding an admission-gate slot
    ([0] whenever the gate is disabled — the default). *)

val admission_shed : t -> int
(** Client requests this node has answered BUSY instead of admitting
    ({!Bftflow.Admission}); [0] with the gate disabled. *)

val tracked_peak : t -> int
(** Most requests this node has tracked at once: the high-water mark
    of its per-request state table. A request's state is retired once
    it is dispatched, propagated, ordered by every instance that
    orders it (all f+1 in redundant mode, the owner in concurrent
    mode) and executed, so the table holds only requests in flight. *)

(** {1 Concurrent (bftrcc) ordering} *)

val ordering : t -> Params.ordering
(** The ordering mode this node runs ({!Params.Redundant} reproduces
    the paper; {!Params.Concurrent} partitions clients across the f+1
    instances and merges their committed streams deterministically). *)

val degraded_partitions : t -> int list
(** Partitions currently on the degrade path (ordered redundantly by
    every primary after an instance change, until their new master
    delivers); always empty in redundant mode. *)

val mc_fingerprint : t -> string
(** Canonical, printable rendering of all schedule-relevant node state:
    instance-change machinery, execution log digest, per-request
    propagation/dispatch flags, retired request ids, blacklist, and
    every hosted replica's
    {!Pbftcore.Replica.fingerprint}. Deliberately excludes virtual-time
    values and metric state. The model checker hashes this per node
    into its visited-state set. *)

val set_latency_probe : t -> (instance:int -> client:int -> Dessim.Time.t -> unit) -> unit
(** Observe every per-request ordering latency the node measures
    (instance, client, dispatch-to-delivery time) — used to draw the
    paper's Figure 12. *)

val is_blacklisted : t -> client:int -> bool

(** {2 Chaos hooks} *)

val set_clock_factor : t -> float -> unit
(** Skew the node's local clock: all periodic timers (monitoring,
    flooding, batch timers of the hosted replicas) are stretched by the
    given factor from now on. 1.0 restores nominal timing. *)

val set_cpu_factor : t -> float -> unit
(** Run every module thread of the node (verification, propagation,
    dispatch, execution, per-instance replica threads) at the given
    speed multiple; costs scale by its inverse. 1.0 restores nominal
    speed. *)
