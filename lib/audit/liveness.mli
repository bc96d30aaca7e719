(** Instance-change liveness monitor.

    The safety auditor ({!Auditor}) checks what must {e never} happen;
    this monitor checks what must {e eventually} happen on the
    instance-change path: a triggered instance change completes, and it
    completes everywhere. It subscribes to the bus, records per node
    the highest cpi voted for ([INSTANCE-CHANGE] sent) and the highest
    cpi completed, and is interrogated once the system has quiesced —
    liveness is only meaningful at a point where no message is still in
    flight, which the model checker guarantees by draining every
    schedule before calling {!check}.

    Scope: designed for crash-only fault placements (the model
    checker's grammar). Nodes crashed for the whole run are excluded
    via the [correct] argument; the monitor does not model
    retransmission, so healing faults would need a weaker check. *)

type problem = { invariant : string; detail : string }
(** [invariant] is one of ["instance-change-completion"] (a change
    completed on one correct node but not all) and
    ["instance-change-progress"] (a quorum of correct votes exists but
    the change never completed somewhere). *)

type t

val create : unit -> t
(** Standalone monitor (not subscribed); feed it with {!on_event}. *)

val attach : Bftmetrics.Probe.t -> t
(** {!create} + subscribe to the probe's events. *)

val detach : t -> unit
(** Unsubscribe; idempotent. *)

val on_event : t -> Bftmetrics.Event.t -> unit

val check : t -> quorum:int -> correct:int list -> problem list
(** [check t ~quorum ~correct] evaluates both liveness rules at
    quiescence over the given correct (non-crashed) node ids and the
    vote quorum (2f+1 in the unmutated protocol). Empty list = live. *)

val max_voted : t -> int -> int
(** Highest cpi the node voted for; [-1] if it never voted. *)

val max_changed : t -> int -> int
(** Highest cpi the node completed a change for; [-1] if none. *)

val vote_events : t -> int

val change_events : t -> int

val pp_problem : Format.formatter -> problem -> unit
