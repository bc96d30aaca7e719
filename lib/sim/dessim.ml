(** Discrete-event simulation substrate.

    Re-exports the engine building blocks so that downstream code can
    refer to [Dessim.Engine], [Dessim.Time], etc. *)

module Time = Time
module Rng = Rng
module Heap = Heap
module Engine = Engine
module Resource = Resource
module Clock = Clock
