type protocol = Flavour.t =
  | Rbft
  | Rbft_udp
  | Rbft_concurrent
  | Aardvark
  | Spinning
  | Prime

(* Measured peak throughputs (req/s) at the calibration anchors, f = 1
   (see EXPERIMENTS.md, "Calibration"). *)
let anchors = function
  | Rbft | Rbft_udp -> (34_000.0, 6_000.0)
  | Rbft_concurrent -> (39_000.0, 5_600.0)
  | Aardvark ->
    (* sustained rate including the regular view-change cycles *)
    (31_500.0, 1_400.0)
  | Spinning -> (48_000.0, 6_300.0)
  | Prime -> (11_000.0, 2_400.0)

(* f = 2 runs 7 nodes: the propagation fan-out grows and peak
   throughput drops (measured for RBFT; baselines are only evaluated
   at f = 1 in the paper's attack figures). *)
let f2_scale = function
  | Rbft | Rbft_udp -> 23_000.0 /. 34_000.0
  | Rbft_concurrent -> 1.0 (* unused: per-anchor scaling, see below *)
  | Aardvark | Spinning | Prime -> 0.55

(* Beyond f = 2 the per-step fan-out keeps growing by the same factor
   per extra fault tolerated, so the measured f = 2 ratio is
   extrapolated geometrically: scale(f) = f2_scale^(f-1). Only the
   scaling sweep (f = 3 -> 10 nodes) relies on the extrapolated
   point. *)
let f_scale proto ~f =
  if f <= 1 then 1.0 else f2_scale proto ** float_of_int (f - 1)

let interpolate (rate8, rate4k) ~size =
  (* Per-request cost grows linearly with size between the anchors. *)
  let cost8 = 1.0 /. rate8 and cost4k = 1.0 /. rate4k in
  let frac = float_of_int (Stdlib.max 0 (size - 8)) /. float_of_int (4096 - 8) in
  1.0 /. (cost8 +. (frac *. (cost4k -. cost8)))

let peak_rate ?(f = 1) proto ~size =
  match proto with
  | Rbft_concurrent ->
    (* Disjoint partitions turn the f+1 instances into added ordering
       capacity: at small requests peak throughput GROWS with the
       cluster (measured ×1.24 per extra fault tolerated), while large
       requests stay propagation-bandwidth-bound and follow the usual
       fan-out decline (measured ×0.81). The two anchors scale
       independently before interpolation. *)
    let pow k = k ** float_of_int (f - 1) in
    let rate8, rate4k = anchors proto in
    interpolate (rate8 *. pow 1.24, rate4k *. pow 0.81) ~size
  | Rbft | Rbft_udp | Aardvark | Spinning | Prime ->
    interpolate (anchors proto) ~size *. f_scale proto ~f

(* Slightly above peak for the pipelined RBFT (queues stay full and
   throughput holds); slightly below for the single-threaded baselines
   whose ingest path collapses under overload. *)
let saturating_rate ?(f = 1) proto ~size =
  let peak = peak_rate ~f proto ~size in
  match proto with
  | Rbft | Rbft_udp | Rbft_concurrent -> 1.05 *. peak
  | Aardvark ->
    (* Aardvark must keep enough headroom to absorb its regular view
       changes: recovery backlogs drain at (capacity - offered). *)
    0.70 *. peak
  | Spinning | Prime -> 0.90 *. peak
