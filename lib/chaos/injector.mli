(** Applies a {!Fault.plan} to a running cluster.

    The injector is protocol-agnostic: it talks to the system under
    test through a {!hooks} record (network fault hook, per-node CPU
    and clock knobs) that each cluster flavour provides — see
    {!Runner}. Installation schedules every fault's activation and
    expiry on the engine and installs a single network hook that rules
    on each message against the currently-active faults.

    Randomized decisions (drop/duplicate/corrupt draws, jitter) come
    from the injector's own stream seeded from the scenario seed, so a
    scenario replays bit-identically. *)

open Dessim

type hooks = {
  engine : Engine.t;
  probe : Bftmetrics.Probe.t;  (** where fault logs are reported *)
  n : int;  (** number of nodes *)
  set_fault_hook : Bftnet.Network.fault_hook option -> unit;
  set_cpu_factor : node:int -> float -> unit;
  set_clock_factor : node:int -> float -> unit;
}

type t

val install : hooks -> seed:int64 -> Fault.plan -> t
(** Schedules the plan. Fault times are absolute virtual times; call
    before running the engine (at time 0). *)

val heal : t -> unit
(** Immediately deactivate every fault: clears the network hook,
    cancels pending activations and resets all skews to 1.0. Used by
    the runner at the start of the drain phase. *)

val crashed : t -> int -> bool
(** Is the node currently crashed (for excluding it from checks)? *)
