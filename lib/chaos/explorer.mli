(** Randomized scenario exploration.

    Samples scenarios from a {!grammar} — a bounded space of fault
    plans a correct configuration must survive — runs each through the
    {!Runner}, and reports every failure. The grammar is deliberately
    conservative about {e loss} faults: the simulator has no message
    retransmission (the network is a switched LAN, as in the paper),
    so unbounded drop rates or majority partitions would deadlock any
    of the protocols without that being a bug. Sampled plans keep loss
    windows short and rates low, never isolate more than [f] nodes at
    once, never target the initial primary (node 0) with loss, and
    restrict Prime — whose clients send each request to a single
    replica with no retry — to loss-free faults (delay, duplication,
    skew).

    Everything is driven by one seed: sweeping with the same seed and
    count reproduces the same scenarios, and each sampled scenario
    embeds its own derived engine seed, so any failure replays exactly
    from its saved file. *)

open Dessim

type grammar = {
  protocols : Flavour.t array;
  f : int;
  duration : Time.t;
  drain : Time.t;
  clients : int;
  rate : float;  (** requests per second per client *)
  payload : int;
  max_faults : int;  (** faults per scenario, >= 1 *)
}

val default_grammar : grammar
(** 4-node clusters across all six protocol flavours, 1 s chaos
    phase, 1.5 s drain, 2 clients at 100 req/s each. *)

val sample : grammar -> Rng.t -> index:int -> Scenario.t
(** Draw one scenario; [index] only names it. *)

type sweep = {
  total : int;
  passed : int;
  failures : Runner.result list;  (** failing runs, in order *)
}

val sweep :
  ?grammar:grammar ->
  ?progress:(Runner.result -> unit) ->
  ?bundle_dir:string ->
  seed:int64 ->
  count:int ->
  unit ->
  sweep
(** Run [count] sampled scenarios; [progress] fires after each. With
    [bundle_dir], every run rides a {!Bftdoctor.Doctor} (see
    {!Runner.run}) and incident bundles land under
    [bundle_dir/<scenario-name>/]. *)
