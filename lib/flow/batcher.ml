open Dessim

(* The adaptive batch grows to at most [growth] times the configured
   size, the flush delay shrinks no lower than [min_delay], and
   adaptation starts at a probed backlog of [target_backlog]. *)
let growth = 4
let min_delay = Time.us 100
let target_backlog = Time.ms 2

type t = { min_size : int; max_size : int; base_delay : Time.t; min_delay : Time.t }

let make ~batch_size ~batch_delay =
  {
    min_size = Stdlib.max 1 batch_size;
    max_size = Stdlib.max 1 (batch_size * growth);
    base_delay = batch_delay;
    min_delay = Time.min min_delay batch_delay;
  }

let clamp lo hi v = Stdlib.max lo (Stdlib.min hi v)

(* Pressure is how full the probed stage is relative to the backlog we
   are willing to tolerate. Below 1.0 the plan stays at the configured
   batch size and delay (low-latency regime); above it the batch grows
   linearly with pressure — amortising the per-batch protocol cost
   (pre-prepare, MAC vectors, quorum bookkeeping) exactly when the
   pipeline is the bottleneck — and the flush delay shrinks towards
   [min_delay] so a saturated primary never sits on a full batch. *)
let plan t ~backlog ~depth =
  let pressure =
    if backlog <= Time.zero then 0.0
    else Time.to_sec_f backlog /. Time.to_sec_f target_backlog
  in
  let scaled =
    int_of_float (ceil (float_of_int t.min_size *. Float.max 1.0 pressure))
  in
  (* Never plan a batch smaller than what is already waiting: draining
     [depth] queued requests in one flush beats doing it in several. *)
  let size = clamp t.min_size t.max_size (Stdlib.max scaled depth) in
  let delay =
    if pressure >= 1.0 then t.min_delay
    else Time.max t.min_delay (Time.mul_f t.base_delay (1.0 -. pressure))
  in
  (size, delay)
