(** A Spinning replica node: transport, CPU accounting and execution
    around the {!Replica} protocol engine.

    Spinning uses MACs only (no client signatures) and clients
    broadcast requests to all replicas, which is why its fault-free
    throughput tops Figure 7; the per-request bookkeeping constant
    below calibrates the prototype overheads (timer management, UDP
    handling) the paper's numbers embed. *)

open Dessim
open Bftapp

type msg =
  | Request of { desc : Pbftcore.Types.request_desc }
  | Order of Replica.msg
  | Reply of { id : Pbftcore.Types.request_id; result : string }

type config = { f : int }

val default_config : f:int -> config

val bookkeeping : Time.t
(** 12 us: per-request replica-side overhead (timers, logs);
    calibrated so Spinning lands ~20-30 % above RBFT as in Section
    VI-B. *)

val body_copy_factor : float
(** 2.0: body-copy overhead of ordering messages (cf. Aardvark). *)

val request_size : n:int -> Pbftcore.Types.request_desc -> int
(** Wire size of a client REQUEST: MAC-authenticated for every node,
    unsigned. *)

type faults = {
  mutable delay_fraction : float;
      (** when > 0, this replica delays each of its proposals by this
          fraction of the current accusation timeout, which starts at
          {!Replica.s_timeout} (0.95 reproduces the Figure 3 attack: "a
          little less than Stimeout") *)
}

type t

val create :
  Engine.t -> msg Bftnet.Network.t -> config -> id:int -> service:Service.t -> t

val start : t -> unit
val id : t -> int
val faults : t -> faults
val replica : t -> Replica.t
val ledger : t -> Pbftcore.Ledger.t

val set_clock_factor : t -> float -> unit
(** Skew the node's local clock (the replica's accusation timer). *)

val set_cpu_factor : t -> float -> unit
(** Run the node's module threads at the given speed multiple. *)
