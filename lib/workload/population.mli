(** Client-population model for capacity experiments.

    Where {!Loadshape} replays the paper's small static/dynamic load
    shapes, this module models a {e population}: up to 10^5 simulated
    clients with Zipf-skewed per-client rates, connect/disconnect
    churn that rotates which subset of the population is live, and a
    time profile (steady, diurnal ramp, flash crowd). It is the
    driver behind the [bench --clients] sweep — what O(clients)
    structures cost is only visible when clients is the variable.

    Everything is deterministic: churn decisions come from a
    {!Dessim.Rng} seeded at creation, and time comes from the
    simulation engine, so same-seed runs produce identical schedules. *)

open Dessim

type profile =
  | Steady  (** constant multiplier 1 for the whole run *)
  | Diurnal
      (** half-sine ramp: 0.3× at the edges, 1× at the midpoint —
          a day compressed to the run's duration *)
  | Flash
      (** steady baseline with a flash crowd in the middle tenth:
          every client connects at once and the aggregate rate
          triples *)

type t

val create :
  ?zipf_s:float ->
  ?active:int ->
  ?churn_interval:Time.t ->
  ?churn_fraction:float ->
  ?profile:profile ->
  ?seed:int64 ->
  clients:int ->
  aggregate_rate:float ->
  duration:Time.t ->
  unit ->
  t
(** [clients] is the total population; [active] (default [clients])
    how many are connected at once. Per-client rates are Zipf over
    the active slots with exponent [zipf_s] (default 1.0), scaled so
    they sum to [aggregate_rate]. Every [churn_interval] (default
    [duration / 16]; {!Time.zero} disables churn) the
    [churn_fraction] (default 0.1) longest-connected clients at
    randomly drawn slots disconnect and unseen population members
    take their slots — so the set of clients the cluster has {e ever}
    seen keeps growing even though the live count is flat, which is
    exactly the pressure that exposes unbounded per-client tables. *)

val clients : t -> int
(** Population size — the number of client endpoints to provision. *)

val active : t -> int
val duration : t -> Time.t
val profile : t -> profile

val rates : t -> float array
(** The Zipf rate of each active slot (req/s at multiplier 1),
    heaviest first; sums to the aggregate rate. *)

val offered_total : t -> float
(** Expected requests offered over the whole run (the profile
    multiplier integrated over the duration). *)

val describe : t -> (string * string) list
(** Key/value description for reports and bundle scenarios. *)

val apply : Engine.t -> t -> set_rate:(int -> float -> unit) -> unit
(** Schedule the population against per-client rate knobs: slot
    assignments, churn rotations and profile multipliers are applied
    at each model tick from the engine's virtual clock; after
    [duration] every client is stopped. *)
