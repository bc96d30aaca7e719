(** Discrete-event simulation substrate.

    Re-exports the engine building blocks so that downstream code can
    refer to [Dessim.Engine], [Dessim.Time], etc. — the single import
    surface every other library in the repo builds on. *)

module Time = Time
(** Virtual time as integer nanoseconds, with unit constructors and
    float conversions. *)

module Rng = Rng
(** Deterministic splittable random streams; all simulation randomness
    derives from the engine seed. *)

module Heap = Heap
(** The binary min-heap behind the event queue, keyed by
    [(time, sequence)] — a strict total order, so simultaneous events
    pop in push order and replays are bit-identical. *)

module Engine = Engine
(** The event loop: a virtual clock, the event queue, and the
    choice-event seam the model checker schedules through. *)

module Resource = Resource
(** Serially-executing job queues modelling CPU cores and NICs; jobs
    carry virtual costs and complete through engine events. *)

module Clock = Clock
(** Skewable wrapper over {!Engine.after} for local periodic timers;
    the chaos engine stretches it to model clock drift. *)
