open Dessim

let base = Time.ms 10
let cap = Time.ms 100
let watchdog_first = Time.mul_f base 16.0
let watchdog_cap = Time.mul_f base 128.0

type t = Rng.t

let create rng = rng

let delay rng ~attempt ~hint =
  let shift = Stdlib.min (Stdlib.max 0 attempt) 16 in
  let d = Time.min cap (Time.mul_f base (float_of_int (1 lsl shift))) in
  (* Full jitter in [d, 2d): spreads retries from clients shed by the
     same burst so they do not re-collide, while staying deterministic
     for a given rng stream. *)
  let jittered = Time.add d (Time.mul_f d (Rng.float rng 1.0)) in
  Time.max hint jittered
