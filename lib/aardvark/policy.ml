open Dessim

type config = { grace : Time.t; view_warmup : Time.t }

let default_config = { grace = Time.sec 5; view_warmup = Time.ms 700 }
(* A new primary must sustain this share of the best recent view's
   throughput. *)
let baseline_fraction = 0.9
let ratchet = 1.01

type t = {
  cfg : config;
  history_length : int;  (* views remembered: n *)
  mutable view_start : Time.t;
  mutable view_ordered : int;
  mutable window_start : Time.t;
  mutable window_ordered : int;
  mutable required : float;
  mutable grace_until : Time.t;
  mutable history : float list;  (* most recent first *)
  mutable recent_rates : float list;  (* rolling window of recent rates *)
  mutable dead_windows : int;  (* consecutive windows with zero progress *)
}

let create ~n cfg =
  {
    cfg;
    history_length = n;
    view_start = Time.zero;
    view_ordered = 0;
    window_start = Time.zero;
    window_ordered = 0;
    required = 0.0;
    grace_until = Time.zero;
    history = [];
    recent_rates = [];
    dead_windows = 0;
  }

let take n xs =
  let rec go n acc = function
    | [] -> List.rev acc
    | _ when n = 0 -> List.rev acc
    | x :: tl -> go (n - 1) (x :: acc) tl
  in
  go n [] xs

let on_view_start t ~now =
  let view_span = Time.to_sec_f (Time.sub now t.view_start) in
  (* Every view that outlived its warmup enters the history — exactly
     like the original protocol, whose requirement can decay once a
     few underperforming views push low entries into the window.
     Infant views (evicted before warming up) carry no signal. *)
  if view_span >= 2.0 *. Time.to_sec_f t.cfg.view_warmup then begin
    let avg = float_of_int t.view_ordered /. view_span in
    t.history <- take t.history_length (avg :: t.history)
  end;
  t.recent_rates <- [];
  t.view_start <- now;
  t.view_ordered <- 0;
  t.window_start <- now;
  t.window_ordered <- 0;
  t.grace_until <- Time.add now t.cfg.grace;
  t.dead_windows <- 0;
  let best = List.fold_left Stdlib.max 0.0 t.history in
  t.required <- baseline_fraction *. best

let note_ordered t ~count =
  t.view_ordered <- t.view_ordered + count;
  t.window_ordered <- t.window_ordered + count

let required_rate t = t.required

type verdict = Ok | Demand_view_change

let tick t ~now ~pending =
  let window = Time.to_sec_f (Time.sub now t.window_start) in
  let rate = if window <= 0.0 then 0.0 else float_of_int t.window_ordered /. window in
  (* Judge the primary on a smoothed rate (last 5 windows): ordering is
     bursty at the batch granularity and a single-window dip says
     little. *)
  t.recent_rates <- take 5 (rate :: t.recent_rates);
  let smoothed =
    List.fold_left ( +. ) 0.0 t.recent_rates
    /. float_of_int (List.length t.recent_rates)
  in
  (* The heartbeat only fires after several consecutive silent windows
     with work pending: a primary digesting a large re-proposal after a
     view change is slow, not dead. *)
  if pending > 0 && t.window_ordered = 0 then
    t.dead_windows <- t.dead_windows + 1
  else t.dead_windows <- 0;
  let heartbeat_expired = t.dead_windows >= 3 in
  t.window_start <- now;
  t.window_ordered <- 0;
  (* The throughput requirement is only meaningful once enough
     requests flowed through the smoothing window; judging a primary on
     a handful of requests is pure noise. *)
  let samples =
    int_of_float
      (List.fold_left ( +. ) 0.0 t.recent_rates *. window)
  in
  let enough_samples = samples >= 256 in
  (* Bootstrap: with no completed view yet, anchor the requirement to
     the first observed throughput so that the ratchet still ends the
     initial view. *)
  if t.required = 0.0 && smoothed > 0.0 && enough_samples then
    t.required <- baseline_fraction *. smoothed;
  if now > t.grace_until then t.required <- t.required *. ratchet;
  (* A view that just started is still recovering (quiet period,
     pipeline refill): judging it would make every view change trigger
     the next one. *)
  let warming = Time.sub now t.view_start < t.cfg.view_warmup in
  if warming then Ok
  else if heartbeat_expired then Demand_view_change
  else if t.required > 0.0 && enough_samples && smoothed < t.required then
    Demand_view_change
  else Ok
