(* Periodic sim-time snapshots of a registry into a time series. *)

open Dessim

type point = { p_time : Time.t; p_samples : Registry.sample list }

type t = {
  engine : Engine.t;
  registry : Registry.t;
  period : Time.t;
  epoch : Time.t;  (* attach instant; ticks land at epoch + k*period *)
  mutable k : int;  (* index of the last armed tick *)
  mutable points : point list;  (* newest first *)
  mutable stopped : bool;
}

let sample_now t =
  t.points <-
    { p_time = Engine.now t.engine; p_samples = Registry.snapshot t.registry }
    :: t.points

(* Ticks are armed at absolute engine-time boundaries [epoch +
   k*period], never relative to the previous callback: the series is
   anchored to engine sim-time by construction, so per-node
   Dessim.Clock factors (bftchaos clock-skew faults stretch node-local
   timers through those) cannot drift the sampling grid, and a clamped
   or delayed callback never shifts the subsequent sample instants. *)
let rec arm t =
  t.k <- t.k + 1;
  let next = Time.add t.epoch (Time.ns (t.k * (t.period : Time.t))) in
  ignore
    (Engine.at t.engine next (fun () ->
         if not t.stopped then begin
           sample_now t;
           arm t
         end))

let attach ?(period = Time.ms 100) engine registry =
  let t =
    {
      engine;
      registry;
      period;
      epoch = Engine.now engine;
      k = 0;
      points = [];
      stopped = false;
    }
  in
  arm t;
  t

let detach t = t.stopped <- true

let period t = t.period
let epoch t = t.epoch
let points t = List.rev t.points
let count t = List.length t.points
