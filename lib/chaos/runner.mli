(** Executes a {!Scenario} and judges it against the oracles.

    A run has two phases. During [duration], the workload is applied
    and the fault plan is live. Then the injector {e heals} every
    fault, the clients stop sending, and the engine runs for [drain]
    more virtual time. The oracles:

    - {b Safety}: a {!Bftaudit.Auditor} (agreement, double execution,
      prepare quorum, checkpoint consistency, instance-change quorum)
      observes the whole run in recording mode.
    - {b Liveness}: after the drain, every request a correct client
      sent must have completed (f+1 matching replies). The drain is
      the liveness bound: a scenario whose faults push completion
      beyond it is a liveness violation.

    With [~capture:true] the run also computes the chained audit
    digest, which is how replay determinism is asserted: running the
    same scenario twice must produce byte-identical digests. *)

type result = {
  scenario : Scenario.t;
  executed : int;  (** requests executed at the most advanced node *)
  sent : int;  (** total client requests sent *)
  completed : int;  (** requests with f+1 matching replies *)
  safety_violations : Bftaudit.Auditor.violation list;
  events_checked : int;
  digest : string option;  (** chained audit digest when captured *)
  incidents : Bftdoctor.Doctor.incident_ref list;
      (** bundles dumped by the doctor when [doctor_dir] was given *)
}

val run :
  ?probe:Bftmetrics.Probe.t -> ?capture:bool -> ?doctor_dir:string -> Scenario.t -> result
(** The run reports to [probe] (default: a fresh one). [capture]
    defaults to [false]. With [doctor_dir], a
    {!Bftdoctor.Doctor} rides along (instance-change,
    auditor-violation and liveness-stall triggers) and writes incident
    bundles under that directory; a run that fails the oracles without
    tripping any trigger force-dumps one bundle of the post-drain
    state. *)

val liveness_ok : result -> bool
(** [completed = sent] (and something was actually sent when the
    workload has a positive rate). *)

val safety_ok : result -> bool

val ok : result -> bool
(** Both oracles pass. *)

val summary : result -> string
(** One line: verdicts plus counts, for sweep output. *)
