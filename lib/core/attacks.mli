(** The attack scenarios of the paper's Section VI-C, scripted against
    a running {!Cluster}.

    In both "worst" attacks there are f faulty nodes and every client
    is faulty; they differ in whether the master primary is correct
    (worst-attack-1) or malicious (worst-attack-2). *)

open Dessim

val worst_attack_1 : Cluster.t -> unit
(** Section VI-C1. The master primary is correct (it runs on node 0 at
    view 0, so the faulty nodes are the last f nodes). Actions:
    (i) all (faulty) clients send requests whose MAC authenticator
    entry is broken for the master-primary node; (ii) the f faulty
    nodes flood that node with invalid PROPAGATEs of maximal size;
    (iii) the faulty nodes' master-instance replicas flood correct
    nodes (folded into the same junk streams) and (iv) stop taking
    part in the master instance; faulty nodes do not propagate. *)

val worst_attack_2 : Cluster.t -> unit
(** Section VI-C2. Node 0 (primary of the master instance at view 0)
    is faulty, along with the last f-1 nodes (2f+2 .. 3f) when f > 1.
    Faulty nodes flood correct nodes below the NIC-closing threshold,
    skip the PROPAGATE phase, and their backup-instance replicas stay
    silent; the faulty master primary delays ordering down to the Δ
    envelope using the adaptive controller that paces it every
    monitoring period, so the ratio correct nodes observe stays just
    above Δ. *)

val unfair_primary :
  Cluster.t -> node:int -> target_client:int -> after_requests:int -> hold:Time.t -> unit
(** Section VI-C3 (Figure 12): after the master instance has ordered
    [after_requests] requests, the (faulty) master primary on [node]
    starts holding back the target client's requests by [hold] before
    proposing them. *)
