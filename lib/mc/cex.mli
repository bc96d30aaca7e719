(** Counterexample extraction: turn a {!Search.cex} into a replayable
    [.scn] fault plan and hand it to the {!Bftchaos.Shrink} minimizer.

    A schedule has no direct [.scn] encoding (scenarios speak in fault
    plans, not delivery orders), so the counterexample is re-expressed
    in scenario coordinates — same crash placement, same protocol
    mutation, same Λ — under a rate-driven workload. For
    mutation-induced safety violations this reproduces the identical
    invariant set deterministically, which the shrinker then minimizes;
    schedule-sensitive findings (liveness, agreement) are saved
    unshrunk as documentation of the placement. *)

type repro = {
  scenario : Bftchaos.Scenario.t;  (** final (possibly shrunk) scenario *)
  path : string option;  (** where the [.scn] file was written *)
  reproduced : bool;
      (** the scenario replays to the same invariant digest *)
  shrink_tests : int;  (** runs spent by the shrinker (0 if skipped) *)
  target_digest : string;  (** {!target_digest} of the original cex *)
}

val target_digest : Search.cex -> string
(** SHA-256 over the sorted distinct invariant names of every problem
    in the counterexample (safety, liveness, agreement), via
    {!Bftaudit.Auditor.invariant_digest}. The reproduction criterion:
    a replay that yields the same digest found the same bug. *)

val to_scenario : ?name:string -> Search.cex -> Bftchaos.Scenario.t
(** The scenario-coordinates rendering of the counterexample. *)

val reproduces : target:string -> Bftchaos.Scenario.t -> bool
(** Run the scenario under {!Bftchaos.Runner} and compare the safety
    invariant digest against [target]. The shrinker's predicate. *)

val extract : ?budget:int -> ?out:string -> Search.cex -> repro
(** Reproduce-then-shrink. [budget] caps shrinker runs (default 200);
    [out] saves the resulting scenario as a [.scn] file. Safety
    counterexamples that reproduce are shrunk; everything else is
    saved as-is with [reproduced = false]. *)

val pp : Format.formatter -> Search.cex -> unit
(** Full human-readable report: placement, schedule, problems. *)
