(** Bounded exhaustive search over delivery schedules and crash
    placements.

    A depth-first walk over schedule prefixes of a {!World}: at each
    state the frontier is the set of enabled deliveries
    ({!World.enabled}); firing one and advancing a slice yields a child
    state. The search is {e stateless} — backtracking replays the
    prefix into a fresh world — with visited-state dedup keyed on
    {!World.fingerprint} and an optional partial-order reduction that
    keeps only the id-sorted representative of schedules commuting
    independent deliveries (distinct receivers).

    Checked properties: the {!Bftaudit.Auditor} safety invariants after
    every step; at every leaf (depth bound or quiescence) the drained
    world's instance-change liveness ({!Bftaudit.Liveness}) and
    execution agreement. *)

open Dessim

type stats = {
  mutable states : int;  (** distinct states stepped into (incl. root) *)
  mutable dedup_hits : int;  (** transitions into already-visited states *)
  mutable leaves : int;  (** schedules drained and judged *)
  mutable por_skipped : int;  (** children skipped by the reduction *)
  mutable por_pruned_subtrees : int;
      (** nodes whose entire frontier was reduction-redundant *)
  mutable replays : int;  (** worlds built (root + backtrack replays) *)
  mutable max_depth : int;
  mutable choices_seen : int;  (** enabled-frontier sizes, summed *)
}

type cex = {
  cex_config : World.config;  (** includes the crash placement *)
  schedule : Engine.choice list;  (** fired deliveries, in order *)
  cex_safety : Bftaudit.Auditor.violation list;
  cex_liveness : Bftaudit.Liveness.problem list;
  cex_agreement : bool;
}

type outcome = {
  stats : stats;
  per_placement : (int list * stats) list;
  counterexample : cex option;
}

val explore :
  ?por:bool -> ?on_progress:(stats -> unit) -> World.config -> outcome
(** Search one crash placement ([cfg.crashes]). Stops at the first
    violation. [on_progress] is called every 500 states. *)

val placements : n:int -> max_faults:int -> f:int -> int list list
(** Crash subsets of [{0..n-1}] with at most [min max_faults f]
    elements, smallest first (the fault-free placement leads). *)

val run :
  ?por:bool ->
  ?max_faults:int ->
  ?on_progress:(stats -> unit) ->
  World.config ->
  outcome
(** Sweep every placement, aggregating stats; stops at the first
    counterexample. [max_faults] defaults to 0 (fault-free only). *)
