(** Agreement state of one sequence slot, and the PBFT prepare/commit
    rule every stack counts by.

    The PBFT instances of RBFT and Aardvark ({!Replica}), Spinning's
    rotating proposers and Prime's summary-vector agreement all decide
    a slot the same way:

    - a PRE-PREPARE from the slot's proposer fixes its digest
      ({!fix}); from then on only votes for that digest count;
    - the proposer sends no PREPARE (its PRE-PREPARE stands for it),
      so a PREPARE from the proposer is ignored;
    - the slot is prepared at [2f] matching PREPAREs from backups
      (this replica's own included), and committed at [2f+1] matching
      COMMITs.

    Votes may arrive before the PRE-PREPARE: they are kept with the
    digest they endorse ({!Voteset.Tagged}) and counted once the digest
    is fixed, if they match it. One replica is one vote per slot.

    The record is read directly by the stacks; every state change goes
    through the functions below, which hold the thresholds. A slot is a
    plain mutable record: counting a vote allocates nothing. *)

open Dessim
open Types

type t = private {
  f : int;
  mutable digest : string;  (** [""] until {!fix} *)
  prepares : Voteset.Tagged.t;
  commits : Voteset.Tagged.t;
  mutable sent_prepare : bool;
      (** this replica sent its PREPARE, or, as the proposer, its
          PRE-PREPARE *)
  mutable sent_commit : bool;  (** the slot is prepared here *)
  mutable delivered : bool;
  mutable t_pp : Time.t;  (** when the digest was fixed locally *)
  mutable t_prepared : Time.t;  (** when this replica sent its COMMIT *)
}

val create : n:int -> f:int -> t
(** An empty slot over replica ids [0 .. n-1]. *)

val fix : t -> string -> now:Time.t -> unit
(** A PRE-PREPARE fixed the slot's digest at [now]: re-count the votes
    already held against it. *)

val prepare : t -> self:int -> proposer:int -> unit
(** This replica takes part in the prepare phase: as a backup it sends
    a PREPARE for the fixed digest, which is its own vote; as the
    proposer its PRE-PREPARE stands for one, and casts no vote. *)

val add_prepare : t -> proposer:int -> from:int -> digest:string -> bool
(** [from]'s PREPARE; [true] iff it is a fresh vote (not a repeat and
    not the proposer's). *)

val commit : t -> self:int -> now:Time.t -> bool
(** [true] exactly once: when this replica has taken part in the
    prepare phase and holds [2f] matching PREPAREs. The slot then
    records this replica's own COMMIT, which the caller broadcasts. *)

val add_commit : t -> from:int -> digest:string -> bool
(** [from]'s COMMIT; [true] iff it is fresh and the slot now holds
    [2f+1] matching COMMITs, so delivery may proceed. *)

val committed : t -> bool
(** Prepared here and holding [2f+1] matching COMMITs: the slot's
    batch is final once it is delivered in order. *)

val deliver : t -> unit
(** Mark the slot delivered. *)

val restart : t -> unit
(** Drop the votes and the sent flags, keeping the digest: a view change
    or an accusation reopens the slot, and the votes must be collected
    again. *)

(** Per-request ordering phase spans of traced requests. On delivery
    a slot's stamps give each traced request of its batch a
    batch-wait, a prepare and a commit span, chained under the
    request's parent; the hosting node collects the commit span with
    {!take} to parent execution on it. *)
module Spans : sig
  type slot := t
  type t

  val create : unit -> t

  val submit :
    t -> span:int -> now:Time.t -> delivered:(request_id -> bool) -> request_id -> unit
  (** Track a traced request ([span >= 0], its parent span) submitted
      at [now], unless [delivered] holds for it or it is already
      tracked. *)

  val record :
    t ->
    Bftmetrics.Probe.t ->
    node:int ->
    instance:int ->
    now:Time.t ->
    slot ->
    request_desc list ->
    unit
  (** The slot was delivered at [now] with these fresh requests: emit
      the phase spans of the traced ones. *)

  val take : t -> id:request_id -> int
  (** Collect (and forget) the commit span of a delivered traced
      request; [-1] if it was untraced or not delivered. *)
end
