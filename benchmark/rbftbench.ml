(* rbftbench: the RBFT benchmark.

     rbftbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]

   With --workload, runs that workload and prints one JSON object as the
   last line of its output: {"correct", "attempted", "failed", "metrics"}.
   --trace 0 prints the end-to-end metrics, --trace 1 the per-layer
   ones. Without --workload, runs every workload in turn, each in a
   child process, and prints one such line per workload with a
   "workload" key added.

   --seconds sizes a run. The end-to-end pass makes as many simulations
   as take about S seconds on the reference machine (Workload.cost), so
   which simulations run depends only on --seed and --seconds: the
   simulated metrics repeat exactly. Simulation i runs with seed
   N + 1000003 i. Simulated metrics pool the requests of every
   simulation; host metrics are medians over them, with run_s and
   setup_s scaled to reference-machine seconds (see [calibration]). The
   per-layer pass makes one plain and one traced simulation of seed N,
   and reports host values unscaled.

   Every simulation runs in a child process of its own, one at a time,
   so heap peaks and GC state do not carry over from one to the next;
   the simulator is single-threaded. The exit code is non-zero when a
   correctness check fails. *)

open Benchcore

let default_seconds = 15.0

let sim_seed seed i = Int64.of_int (seed + (i * 1_000_003))

let exe = Sys.executable_name

(* Run [exe args] with its standard output on a pipe, return the last
   line it printed, and wait for it to end. *)
let child args =
  let r, w = Unix.pipe ~cloexec:true () in
  let pid =
    Unix.create_process exe (Array.of_list (exe :: args)) Unix.stdin w Unix.stderr
  in
  Unix.close w;
  let ic = Unix.in_channel_of_descr r in
  let rec last prev =
    match input_line ic with line -> last (Some line) | exception End_of_file -> prev
  in
  let line = last None in
  close_in ic;
  let _, status = Unix.waitpid [] pid in
  let status =
    match status with
    | Unix.WEXITED 0 -> Ok ()
    | Unix.WEXITED c -> Error (Printf.sprintf "exited with code %d" c)
    | Unix.WSIGNALED s | Unix.WSTOPPED s -> Error (Printf.sprintf "killed by signal %d" s)
  in
  (line, status)

type kind = Plain | Plain_gc | Traced

let kinds = [ ("plain", Plain); ("plain-gc", Plain_gc); ("traced", Traced) ]
let kind_name k = fst (List.find (fun (_, k') -> k' = k) kinds)

let simulate kind (w : Workload.t) ~seed : Measure.outcome =
  let failed e = { Measure.values = []; committed = 0; digest = ""; failures = [ e ]; latency = [] } in
  match
    child [ "--run"; kind_name kind; "--workload"; w.Workload.name; "--seed"; Int64.to_string seed ]
  with
  | Some line, Ok () -> (try Measure.of_json line with e -> failed (Printexc.to_string e))
  | _, Error e -> failed ("simulation " ^ e)
  | None, Ok () -> failed "simulation printed nothing"

let value (o : Measure.outcome) name =
  match List.assoc_opt name o.Measure.values with Some v -> v | None -> nan

let sum name outcomes = List.fold_left (fun acc o -> acc +. value o name) 0.0 outcomes

let report (w : Workload.t) ~checks ~outcomes metrics =
  let checks =
    checks
    @ List.concat_map
        (fun (o : Measure.outcome) -> List.map (fun m -> (false, m)) o.Measure.failures)
        outcomes
    @ List.map (fun (name, _, v) -> (Float.is_finite v, name ^ " was not measured")) metrics
  in
  List.iter
    (fun (ok, msg) -> if not ok then Printf.eprintf "rbftbench: %s: %s\n%!" w.Workload.name msg)
    checks;
  let correct = List.for_all fst checks in
  (* An operation is one client request; it fails when the system has
     not served it by the end of the settle phase (Measure.settle). *)
  Printf.printf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|} correct
    (int_of_float (sum "client.sent" outcomes))
    (int_of_float (sum "client.unserved" outcomes))
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} name (Measure.json_number v) unit)
          metrics));
  print_newline ();
  correct

(* A shared machine's speed drifts by tens of percent over minutes, and
   CPU time drifts with it. This fixed loop, which uses no code of the
   repository, is timed in this small process just before and after
   each simulation; host times are scaled by its reference time over
   the mean of the two, so they read in reference-machine seconds. *)
let reference_calibration_s = 0.15

let calibration () =
  snd
    (Measure.timed (fun () ->
         let h = Hashtbl.create 16 in
         for i = 0 to 199_999 do
           Hashtbl.replace h ((i * 7919) land 0xFFFFF) i
         done;
         let a = Array.init 300_000 (fun i -> (i * 2654435761) land 0xFFFFFF) in
         Array.sort compare a;
         ignore (Sys.opaque_identity (h, a))))

let calibrated w ~seed ~before =
  let o = simulate Plain w ~seed in
  let after = calibration () in
  let speed = reference_calibration_s /. ((before +. after) /. 2.0) in
  let scale (k, v) = if List.mem k [ "run_s"; "setup_s" ] then (k, v *. speed) else (k, v) in
  ({ o with Measure.values = List.map scale o.Measure.values }, after)

let end_to_end (w : Workload.t) ~seed ~seconds =
  let n = max 1 (int_of_float (seconds /. w.Workload.cost)) in
  let sims, _ =
    List.fold_left
      (fun (acc, before) i ->
        let o, after = calibrated w ~seed:(sim_seed seed i) ~before in
        (o :: acc, after))
      ([], calibration ()) (List.init n Fun.id)
  in
  let sims = List.rev sims in
  let latency =
    List.fold_left (fun acc (o : Measure.outcome) -> Latency.merge acc o.Measure.latency) [] sims
  in
  let median name = Stats.median (List.map (fun o -> value o name) sims) in
  let metric name =
    match name with
    | "throughput_req_s" -> sum name sims /. float_of_int n
    | "latency_p50_ms" -> 1e3 *. Latency.percentile latency 50.0
    | "latency_p99_ms" -> 1e3 *. Latency.percentile latency 99.0
    | "completed_share" -> sum "client.completed" sims /. sum "client.sent" sims
    | _ -> (* host metrics *) median name
  in
  report w ~checks:[] ~outcomes:sims
    (List.map (fun (name, unit) -> (name, unit, metric name)) Catalog.end_to_end)

let per_layer (w : Workload.t) ~seed =
  let seed = sim_seed seed 0 in
  let plain = simulate Plain_gc w ~seed in
  let traced = simulate Traced w ~seed in
  let event_ns = Measure.engine_event_ns ~depth:(int_of_float (value traced "sim.queue_peak")) in
  let derived =
    [
      ("sim.engine_event_ns", event_ns);
      ( "sim.engine_share_est",
        value plain "sim.events_per_req" *. value plain "client.completed" *. event_ns /. 1e9
        /. value plain "run_s" );
      ("trace.overhead_ratio", value traced "run_s" /. value plain "run_s");
    ]
  in
  (* Counts that cost nothing to read come from the plain run; the rest
     exist only in the traced one. *)
  let lookup name =
    match List.assoc_opt name derived with
    | Some v -> v
    | None -> (
      match List.assoc_opt name plain.Measure.values with
      | Some v -> v
      | None -> value traced name)
  in
  let checks =
    [
      ( plain.Measure.committed = traced.Measure.committed
        && String.equal plain.Measure.digest traced.Measure.digest,
        "traced and plain runs of one seed executed different sequences" );
      (value traced "audit.violations" = 0.0, "the safety auditor reported violations");
      (Float.abs (value traced "stage.share_sum" -. 1.0) <= 0.01, "stage shares do not sum to 1");
    ]
  in
  report w ~checks ~outcomes:[ plain ]
    (List.map (fun (name, unit) -> (name, unit, lookup name)) Catalog.per_layer)

let all ~seed ~seconds ~trace =
  List.fold_left
    (fun ok (w : Workload.t) ->
      let line, status =
        child
          [
            "--workload"; w.Workload.name;
            "--seed"; string_of_int seed;
            "--seconds"; Printf.sprintf "%g" seconds;
            "--trace"; (if trace then "1" else "0");
          ]
      in
      (match line with
      | Some l when String.length l > 1 && l.[0] = '{' ->
        Printf.printf "{\"workload\": \"%s\", %s\n%!" w.Workload.name
          (String.sub l 1 (String.length l - 1))
      | _ -> Printf.eprintf "rbftbench: %s printed no result\n%!" w.Workload.name);
      ok && status = Ok ())
    true Workload.all

let () =
  let workload = ref None and seed = ref 42 and seconds = ref default_seconds in
  let trace = ref 0 and run = ref None in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME run one workload");
      ("--seed", Arg.Set_int seed, "N input seed (default 42)");
      ("--seconds", Arg.Set_float seconds, "S size of a run in reference host seconds (default 15)");
      ("--trace", Arg.Set_int trace, "0|1 print end-to-end (0) or per-layer (1) metrics");
      ("--run", Arg.String (fun s -> run := Some s), "KIND internal: one simulation in this process");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "rbftbench [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]";
  let workload =
    Option.map
      (fun name ->
        match Workload.find name with
        | Some w -> w
        | None ->
          Printf.eprintf "rbftbench: unknown workload %s\n" name;
          exit 2)
      !workload
  in
  let ok =
    match (Option.map (fun k -> List.assoc_opt k kinds) !run, workload) with
    | Some (Some kind), Some w ->
      print_endline
        (Measure.to_json
           (Measure.run w ~seed:(Int64.of_int !seed) ~trace:(kind = Traced)
              ~gc_clock:(kind = Plain_gc)));
      true
    | Some _, _ ->
      prerr_endline "rbftbench: --run needs plain, plain-gc or traced, and --workload";
      false
    | None, Some w ->
      if !trace = 1 then per_layer w ~seed:!seed else end_to_end w ~seed:!seed ~seconds:!seconds
    | None, None -> all ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1)
  in
  exit (if ok then 0 else 1)
