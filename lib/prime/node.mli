(** A Prime replica node (Amir et al., DSN 2008), as analysed in
    Section III-A of the RBFT paper.

    Clients send their (signed) request to one replica; replicas
    broadcast signed PO-REQUESTs so everyone learns every request;
    the primary periodically emits a PRE-PREPARE carrying a cumulative
    summary vector (how many pre-ordered requests of each origin are
    ordered), bounded by a per-origin aggregation window; replicas
    agree on the vector with PREPARE/COMMIT and execute the covered
    requests deterministically. All protocol messages are signed —
    Prime's latency handicap in Figure 7.

    The whole replica runs on a single CPU thread (verification,
    ordering, pings and execution), which is what lets the colluding
    client's heavy requests inflate the measured round-trip times in
    the Figure 1 attack. *)

open Dessim
open Bftapp

type msg =
  | Request of { desc : Pbftcore.Types.request_desc; sig_valid : bool }
  | Po_request of { desc : Pbftcore.Types.request_desc; po_seq : int }
  | Pre_prepare of { view : int; seq : int; vector : int array }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | Ping of { nonce : int }
  | Pong of { nonce : int }
  | Suspect of { view : int }
  | Reply of { id : Pbftcore.Types.request_id; result : string }

type config = {
  f : int;
  exec_cost : Time.t;  (** least execution cost of an ordinary request *)
}

val default_config : f:int -> config
(** 100 us per request: the paper's Figure 1 requests. The fault-free
    comparisons use 1 us, like the other stacks. *)

val body_copy_factor : float
(** 6.0: body-copy overhead of the PO dissemination path. *)

val request_size : n:int -> Pbftcore.Types.request_desc -> int
(** Wire size of a client REQUEST: signed, with no per-node
    authenticator (so [n] does not enter). *)

type faults = {
  mutable delay_to_limit : bool;
      (** malicious primary: stretch the PRE-PREPARE period to a
          fraction of the monitored allowance (Figure 1 attack) *)
  mutable limit_fraction : float;  (** default 0.95 *)
}

type t

val create :
  Engine.t -> msg Bftnet.Network.t -> config -> id:int -> service:Service.t -> t

val start : t -> unit
val id : t -> int
val faults : t -> faults
val monitor : t -> Monitor.t
val view : t -> int
val ledger : t -> Pbftcore.Ledger.t
val suspects_seen : t -> int

val set_clock_factor : t -> float -> unit
(** Skew the node's local clock (pre-prepare and ping loops). *)

val set_cpu_factor : t -> float -> unit
(** Run the node's protocol thread at the given speed multiple. *)
