(** Online safety auditor.

    Subscribes to a run's {!Bftmetrics.Probe} and checks global safety invariants while a
    simulation runs, across every node and protocol instance:
    agreement, no double execution, prepare quorum, checkpoint
    consistency, and instance-change quorum (see the implementation
    header for precise definitions).

    Nodes under adversarial control are excluded from the checks'
    conclusions (their votes still count, as they do in the real
    protocol).  Attack installers declare them on the run's probe
    ({!Bftmetrics.Probe.declare_faulty}); violations raise {!Violation} with a readable
    report that includes the most recent bus events for context. *)

open Dessim

exception Violation of string

type violation = Bftmetrics.Probe.violation = {
  time : Time.t;
  invariant : string;
  detail : string;
}

val reset_declared : unit -> unit
(** Clear {!Bftmetrics.Probe.default}'s declared-faulty set, for
    [benchmark/] (DESIGN §9). Code that owns its probe calls
    {!Bftmetrics.Probe.reset_declared}. *)

type t

val attach :
  ?probe:Bftmetrics.Probe.t ->
  ?faulty:int list -> ?raise_on_violation:bool -> n:int -> f:int -> unit -> t
(** An auditor subscribed to [probe]'s events (for [benchmark/] only,
    {!Bftmetrics.Probe.default} when none is given). It also excludes
    the nodes declared faulty on [probe] and reports every violation to the probe's
    violation subscribers, before any raise. [raise_on_violation]
    defaults to [true]; when [false], violations are only recorded and
    available via {!violations}. *)

val detach : t -> unit
(** Unsubscribe; idempotent. *)

val events_checked : t -> int
val violations : t -> violation list
(** Recorded violations, oldest first. *)

val invariant_digest : violation list -> string
(** Hex SHA-256 over the sorted set of distinct violated invariant
    names — a run-independent identity for "which bug fired". The
    model checker uses it to confirm that a shrunk counterexample
    still reproduces the original violation. *)

val report : t -> violation -> string
(** Multi-line human-readable report with recent-event context. *)

val pp_violation : Format.formatter -> violation -> unit
