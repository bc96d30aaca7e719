(** The attack scenarios of the paper's Section VI-C, as adversary
    plans: which nodes are faulty and what each one does. {!install} is
    the one writer of node faults, replica adversaries and client
    behaviours, and it declares exactly the plan's faulty set on the
    run's probe. *)

open Dessim

type flood =
  | Aggressive  (** 4x the NIC-closing threshold: the NIC gets closed *)
  | Below_threshold  (** 0.8x the threshold: the NIC stays open *)

(** What a faulty node does. PRE-PREPARE pacing and holds act on its
    master-instance replica. *)
type behaviour =
  | Flood of { targets : int list; flood : flood }
      (** junk PROPAGATEs of maximal size to [targets] *)
  | No_propagate
  | Drop_client_requests
  | Silent of int list  (** its replicas of these instances send nothing *)
  | Delay_pre_prepares of Time.t
  | Throttle_pre_prepares of float  (** at most this many req/s *)
  | Pace_to_delta of float
      (** cap ordering at (Δ + margin) times the stable backup rate its
          own monitoring reads, re-read every monitoring period *)
  | Hold_client of { client : int; steps : (int * Time.t) list }
      (** hold [client]'s requests by the [hold] of the last ascending
          [(ordered, hold)] step the replica's ordered count reached *)

type plan = {
  nodes : (int * behaviour list) list;  (** the faulty nodes' behaviours *)
  broken_macs_for : int list;  (** nodes every client's MAC entry is broken for *)
}

val faulty : plan -> int list
(** The plan's faulty nodes, in plan order. *)

val node : int -> behaviour list -> plan
(** One faulty node and no faulty clients. *)

val worst1 : Params.t -> plan
(** Section VI-C1: the master primary (node 0 at view 0) is correct and
    the last f nodes are faulty. (i) Every client breaks its MAC entry
    for the master primary's node; (ii) the faulty nodes flood that
    node with junk PROPAGATEs, (iii) their master-instance replicas go
    silent and (iv) they skip PROPAGATE. *)

val worst2 : Params.t -> plan
(** Section VI-C2: the master primary's node and the last f - 1 nodes
    are faulty. They flood the correct nodes below the NIC-closing
    threshold, skip PROPAGATE and silence their backup replicas; the
    master primary paces itself to Δ + 0.035. *)

val unfair_primary : Params.t -> client:int -> steps:(int * Time.t) list -> plan
(** Section VI-C3 (Figure 12): the master primary's node holds
    [client]'s requests by [steps]. *)

val unfair_params : Params.t -> Params.t
(** Λ = 1.5 ms (the latency check is off by default, Section IV-C) and
    a 200 µs batch delay, for unfair-primary runs. *)

val install : Cluster.t -> plan -> unit
(** Switch the plan on from now, on top of anything installed before. *)

val worst_attack_1 : Cluster.t -> unit
(** [install] of {!worst1}. *)

val worst_attack_2 : Cluster.t -> unit
(** [install] of {!worst2}. *)
