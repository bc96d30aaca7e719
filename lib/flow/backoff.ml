open Dessim

let cap = Time.ms 100

type t = { base : Time.t; rng : Rng.t }

let create ~base rng = { base = Time.max (Time.ns 1) base; rng }

let delay t ~attempt ~hint =
  let shift = Stdlib.min (Stdlib.max 0 attempt) 16 in
  let d = Time.min cap (Time.mul_f t.base (float_of_int (1 lsl shift))) in
  (* Full jitter in [d, 2d): spreads retries from clients shed by the
     same burst so they do not re-collide, while staying deterministic
     for a given rng stream. *)
  let jittered = Time.add d (Time.mul_f d (Rng.float t.rng 1.0)) in
  Time.max hint jittered
