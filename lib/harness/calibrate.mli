(** Calibrated saturation points for the experiment harness.

    Peak throughputs were measured once with the capacity probe
    (bin/rbft_sim.exe in its probing configuration) and are anchored
    here at the two request sizes the paper reports (8 B and 4 kB);
    intermediate sizes interpolate the per-request cost (1/rate)
    linearly in the request size, which matches how every per-byte
    cost in the model scales. *)

type protocol = Flavour.t =
  | Rbft
  | Rbft_udp
  | Rbft_concurrent
  | Aardvark
  | Spinning
  | Prime
(** {!Flavour.t}, re-exported so the anchors' callers can write
    [Calibrate.Rbft]. *)

val peak_rate : ?f:int -> protocol -> size:int -> float
(** Estimated peak throughput (req/s) at the given request size.
    [?f] (default 1) scales for larger clusters: the f = 2 point is
    measured, higher [f] extrapolate the same per-fault ratio
    geometrically. [Rbft_concurrent] (disjoint-partition ordering,
    {!Bftrcc}) scales its two anchors independently — small requests
    gain capacity with every added instance, large requests stay
    propagation-bound and decline. *)

val saturating_rate : ?f:int -> protocol -> size:int -> float
(** Offered load used for "static, saturated" experiments: slightly
    above the peak so queues stay full, but below the overload
    collapse of the single-threaded baselines. *)
