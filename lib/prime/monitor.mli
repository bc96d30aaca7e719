(** Prime's network/execution monitoring (Section III-A of the RBFT
    paper).

    Replicas periodically measure pairwise round-trip times and track
    how long batches take to execute; from these they derive the
    maximum delay a correct primary may let pass between two ordering
    messages:

    [allowed_gap = t_pp + k_lat * (rtt_estimate + exec_estimate)]

    A primary whose PRE-PREPARE gap exceeds the allowance is
    suspected. The RBFT paper's attack (Figure 1) inflates
    [rtt_estimate] and [exec_estimate] with expensive requests from a
    colluding client, widening the allowance that a malicious primary
    may then exploit in full. *)

open Dessim

type t

val t_pp : Time.t
(** 10 ms: the primary's nominal ordering period. *)

val k_lat : float
(** 3.0: the paper's network-variability constant. *)

val ping_period : Time.t
(** 100 ms between a replica's round-trip probes. *)

val create : unit -> t

val note_rtt : t -> Time.t -> unit
val note_batch_exec : t -> Time.t -> unit
(** Total execution time of one ordered aggregation round. *)

val note_pre_prepare : t -> now:Time.t -> unit

val allowed_gap : t -> Time.t
(** Current allowance between consecutive PRE-PREPAREs. *)

val suspicious : t -> now:Time.t -> bool
(** The primary's last PRE-PREPARE is older than the allowance. *)
