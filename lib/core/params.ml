open Dessim

type recovery = Change_primaries | Switch_master
type ordering = Redundant | Concurrent

let ordering_name = function
  | Redundant -> "redundant"
  | Concurrent -> "concurrent"

type t = {
  f : int;
  delta : float;
  lambda : Time.t;
  omega : Time.t;
  batch_delay : Time.t;
  order_full_requests : bool;
  recovery : recovery;
  post_vc_quiet : Time.t;
  ordering : ordering;
  admission_budget : int;
  adaptive_batching : bool;
  (* Inert (see params.mli): set only by the benchmark. *)
  request_gc_age : Time.t;
  monitoring_idle_prune : Time.t;
}

let default ~f =
  {
    f;
    delta = 0.95;
    lambda = Time.zero;
    omega = Time.zero;
    batch_delay = Time.ms 1;
    order_full_requests = false;
    recovery = Change_primaries;
    post_vc_quiet = Time.zero;
    ordering = Redundant;
    admission_budget = 0;
    adaptive_batching = false;
    request_gc_age = Time.zero;
    monitoring_idle_prune = Time.zero;
  }

let monitoring_period = Time.ms 100
let batch_size = 64
let checkpoint_interval = 128
let watermark_window = 1024
let flood_threshold = 64
let flood_close_time = Time.ms 500
let noop_interval = Time.ms 1
let propagate_batch = 16
let propagate_batch_delay = Time.us 300
let stall_change = Time.ms 250

let n t = (3 * t.f) + 1
let instances t = t.f + 1
let master_instance = 0

let primary_of t ~instance ~view = (view + instance) mod n t
