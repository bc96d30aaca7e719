(* Periodic sim-time snapshots of a registry into a time series. *)

open Dessim

type point = { p_time : Time.t; p_samples : Registry.sample list }

type t = {
  engine : Engine.t;
  registry : Registry.t;
  period : Time.t;
  epoch : Time.t;  (* attach instant; ticks land at epoch + k*period *)
  mutable points : point list;  (* newest first *)
  mutable stop : unit -> unit;
}

let sample_now t =
  t.points <-
    { p_time = Engine.now t.engine; p_samples = Registry.snapshot t.registry }
    :: t.points

(* Ticks come from [Engine.every]: anchored to engine sim-time, so
   per-node Dessim.Clock factors (bftchaos clock-skew faults stretch
   node-local timers through those) cannot drift the sampling grid. *)
let attach ?(period = Time.ms 100) engine registry =
  let t =
    {
      engine;
      registry;
      period;
      epoch = Engine.now engine;
      points = [];
      stop = ignore;
    }
  in
  t.stop <- Engine.every engine period (fun () -> sample_now t);
  t

let detach t = t.stop ()

let period t = t.period
let epoch t = t.epoch
let points t = List.rev t.points
let count t = List.length t.points
