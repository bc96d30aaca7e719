(** An Aardvark replica node.

    One PBFT-style replica per node (full requests in PRE-PREPAREs),
    fronted by a verification thread (MAC + signature on every client
    request) and an execution thread, with the regular-view-change
    policy of {!Policy} evaluated every monitoring period.

    The faulty-primary attack of the RBFT paper's Figure 2 is built
    in: a node with [track_required] set delays its PRE-PREPAREs so
    that its throughput stays just above the ratcheting requirement —
    slow, but never slow enough to be evicted early. *)

open Dessim
open Bftapp

type msg =
  | Request of { desc : Pbftcore.Types.request_desc; sig_valid : bool }
  | Order of Pbftcore.Messages.t
  | Reply of { id : Pbftcore.Types.request_id; result : string }

type config = {
  f : int;
  policy : Policy.config;
  post_vc_quiet : Time.t;
      (** recovery pause after a view change — the cost that makes
          Aardvark's fault-free throughput trail RBFT's (Sec. VI-B) *)
}

val default_config : f:int -> config
(** The paper's policy times and a 400 ms post-view-change quiet. *)

val simulation_config : f:int -> config
(** [default_config] with the policy times compressed for simulation:
    1.2 s grace, 500 ms view warm-up, 120 ms post-view-change quiet.
    The paper's 5 s grace would make every figure run tens of
    simulated seconds; ratios are unaffected because fault-free and
    attacked runs use the same compression. *)

val monitoring_period : Time.t
(** 100 ms: how often a replica evaluates the {!Policy}. *)

val batch_size : int
(** 64 requests per PRE-PREPARE. *)

val batch_delay : Time.t
(** 1 ms: how long the primary waits to fill a batch. *)

val body_copy_factor : float
(** 6.0: how many times the prototype touches full request bodies on
    the ordering path; calibrated so the 4 kB peak matches the paper's
    1.7 kreq/s (Section VI-B). *)

val request_size : n:int -> Pbftcore.Types.request_desc -> int
(** Wire size of a client REQUEST: signed, MAC-authenticated for every
    node. *)

type faults = {
  mutable track_required : bool;
      (** malicious primary shadows the requirement (Figure 2 attack) *)
  mutable attack_margin : float;
      (** stay this factor above the requirement (default 1.10) *)
}

type t

val create :
  Engine.t -> msg Bftnet.Network.t -> config -> id:int -> service:Service.t -> t

val start : t -> unit
val id : t -> int
val faults : t -> faults
val replica : t -> Pbftcore.Replica.t
val policy : t -> Policy.t
val ledger : t -> Pbftcore.Ledger.t
val view_changes : t -> int

val set_clock_factor : t -> float -> unit
(** Skew the node's local clock (monitoring and batch timers). *)

val set_cpu_factor : t -> float -> unit
(** Run the node's module threads at the given speed multiple. *)
