(** The discrete-event simulation engine.

    An engine owns a virtual clock and an event queue. Components
    schedule closures to run at future virtual instants; [run] drains
    the queue in deterministic time order. This substrate plays the
    role of the physical cluster in the paper's evaluation. *)

type t

type timer
(** A handle on a scheduled event, used for cancellation. *)

val create :
  ?seed:int64 -> ?on_job_start:(int -> start:Time.t -> finish:Time.t -> unit) -> unit -> t
(** [create ~seed ()] makes an engine whose clock starts at
    {!Time.zero}. All randomness in a simulation derives from [seed]
    (default [1L]). [on_job_start] is called when a {!Resource} job
    tagged with a span id (>= 0) starts service, with the virtual
    instants it occupies the server; the run's span tracer installs
    it. *)

val on_job_start : t -> int -> start:Time.t -> finish:Time.t -> unit

val now : t -> Time.t
(** Current virtual time. *)

val rng : t -> Rng.t
(** The engine's root random stream; components should {!Rng.split} it
    rather than drawing from it directly. *)

val fresh_rng : t -> Rng.t
(** [fresh_rng t] is a convenience for [Rng.split (rng t)]. *)

val after : t -> Time.t -> (unit -> unit) -> timer
(** [after t delay f] schedules [f] to run [delay] after [now]. A
    negative delay is clamped to zero. *)

val at : t -> Time.t -> (unit -> unit) -> timer
(** [at t instant f] schedules [f] at absolute virtual time [instant];
    instants in the past run "now" (still in deterministic order). *)

val cancel : t -> timer -> unit
(** [cancel t timer] prevents a pending event of [t] from running.
    Cancelling an already-fired or already-cancelled timer is a no-op.
    A queued event leaves the heap at once, in O(log n): the engine
    keeps no reference to its action, so whatever only that closure
    captures can be collected, and the other events keep their order.
    The timer can be {!rearm}ed straight away. *)

val every : t -> Time.t -> (unit -> unit) -> unit -> unit
(** [every t period f] runs [f] at [epoch + k * period] for k = 1, 2,
    ..., where [epoch] is [now t] at the call: the grid is anchored to
    engine time, so per-node {!Clock} skew cannot drift it. It returns
    the function that stops the ticks: the pending one becomes a
    no-op, and a stop from inside [f] arms none. The pending tick
    keeps the queue non-empty, so drive the engine with [run ~until]
    while it ticks. *)

val timer : (unit -> unit) -> timer
(** [timer f] is an unscheduled event that runs [f]; schedule it with
    {!rearm}. *)

val rearm : t -> timer -> Time.t -> unit
(** [rearm t timer instant] schedules an event that is not pending (it
    fired, was cancelled, or was never scheduled) again, at [instant]
    as for {!at}. It lets a component that fires the same action over
    and over reuse one event record instead of allocating one per
    firing.
    @raise Invalid_argument if [timer] is pending. *)

val pending : timer -> bool
(** [pending timer] is [true] when the event has not yet fired nor been
    cancelled. *)

val run : ?until:Time.t -> t -> unit
(** [run ?until t] processes events in time order. With [until], stops
    once the clock would pass that instant (the clock is left at
    [until]); otherwise runs until the queue is empty or {!stop} is
    called. *)

val stop : t -> unit
(** Request [run] to return after the current event. *)

(** {1 Choice events — the model-checker scheduler seam}

    A {e choice} event is one whose firing order is a genuine
    scheduling decision (in practice: a message delivery to a node).
    By default choice events behave exactly like {!at} events and cost
    one extra branch. With capture enabled ({!set_choice_capture}),
    they are {e parked} instead of entering the heap: an external
    scheduler — the {!Bftmc} explorer — inspects {!pending_choices}
    and decides which to fire next with {!fire_choice}, exploring
    delivery orders the timestamp order would never produce. *)

type choice = {
  id : int;
      (** creation order; unique and monotonically increasing, so a
          choice with a smaller id was already pending when a larger
          one was created — the fact the partial-order reduction
          relies on *)
  key : Time.t;  (** nominal arrival instant under timestamp order *)
  src : int;  (** sending principal (node id, or [-(c+1)] for client c) *)
  dst : int;  (** receiving node id *)
  label : string;  (** content-based description, for state fingerprints *)
}

val set_choice_capture : t -> bool -> unit
(** Toggle capture mode. Off (the default), {!at_choice} degrades to
    {!at} and the engine behaves exactly as before this seam existed. *)

val choice_capture : t -> bool

val at_choice :
  t -> Time.t -> src:int -> dst:int -> label:string -> (unit -> unit) -> timer
(** Like {!at}, but marks the event as a scheduling choice. With
    capture off this {e is} {!at}. With capture on the event is parked
    until {!fire_choice} or {!release_choices}; [cancel] still works. *)

val pending_choices : t -> choice list
(** Parked, uncancelled choices in creation (id) order. *)

val pending_choice_count : t -> int

val fire_choice : t -> int -> bool
(** [fire_choice t id] runs the parked choice with that id now, at the
    {e current} clock — deliberately not advancing to [key]: under
    checker control virtual time advances only through [run ~until]
    slices, which keeps states reached by commuted independent
    deliveries bit-identical. Returns [false] if no such choice is
    parked. *)

val release_choices : t -> unit
(** Push every parked choice back into the heap (at [max key now], in
    id order) so a subsequent [run] drains them under normal timestamp
    order — how the checker ends a schedule prefix deterministically. *)

val events_processed : t -> int
(** Total number of events executed so far; a cheap progress and
    cost metric for the simulation itself. *)

val queue_size : t -> int
(** Events still to fire (parked choices not included): the heap's
    size, since a cancelled event leaves it at once. *)

val queue_peak : t -> int
(** The most events the queue has held at once: the high-water mark of
    {!queue_size}. *)
