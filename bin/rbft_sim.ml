(* rbft-sim: command-line driver for the RBFT reproduction.

   Subcommands:
     run         simulate an RBFT cluster (fault-free or under attack);
                 with --span-sample or --spans, trace requests causally
                 and print the critical-path latency attribution
     spans       print that attribution for a span JSONL saved by run
     compare     show calibrated peaks of the four protocols
     experiment  run one experiment group from the benchmark harness
     scenario    replay a chaos scenario file and judge it
     explore     randomized chaos sweep with shrinking of failures
     doctor      analyze an incident bundle written by the flight recorder
     mc          model-check delivery orders and crash placements

   Examples:
     rbft_sim run --f 1 --clients 10 --rate 2000 --seconds 2
     rbft_sim run --attack worst2 --payload 4096
     rbft_sim run --clients 200 --cap-deep   -- memory footprint table
     rbft_sim run --span-sample 1/8 --attack worst1 --spans spans.jsonl
     rbft_sim spans spans.jsonl --slowest 3
     rbft_sim experiment --id fig12
     rbft_sim scenario --file examples/scenarios/flapping_partition.scn
     rbft_sim explore --count 200 --seed 7 *)

open Cmdliner
open Dessim

(* ------------------------------------------------------------------ *)
(* span analysis                                                      *)
(* ------------------------------------------------------------------ *)

(* "--span-sample 1/8" keeps every 8th request; a bare integer is also
   accepted. *)
let parse_sample s =
  let bad () = failwith (Printf.sprintf "bad --span-sample %S (want 1/N)" s) in
  match String.index_opt s '/' with
  | Some i ->
    let num = String.sub s 0 i
    and den = String.sub s (i + 1) (String.length s - i - 1) in
    (match (int_of_string_opt num, int_of_string_opt den) with
     | Some 1, Some n when n >= 1 -> n
     | _ -> bad ())
  | None -> (
    match int_of_string_opt s with Some n when n >= 1 -> n | _ -> bad ())

let analysis ~slowest spans =
  let summary = Bftspan.Analyze.summarize spans in
  let b = Buffer.create 4096 in
  Buffer.add_string b (Bftspan.Analyze.report ~slowest summary);
  Buffer.add_char b '\n';
  Buffer.add_string b (Bftspan.Analyze.client_report summary);
  (match Bftspan.Analyze.check_trees spans with
   | [] -> ()
   | errs ->
     Printf.bprintf b "\nspan-tree violations (%d):\n" (List.length errs);
     List.iter (fun e -> Printf.bprintf b "  %s\n" e) errs);
  Buffer.contents b

let slowest_arg =
  Arg.(
    value & opt int 5
    & info [ "slowest" ] ~doc:"Critical paths to print for the slowest requests.")

(* ------------------------------------------------------------------ *)
(* run                                                                *)
(* ------------------------------------------------------------------ *)

(* The agreement verdict waits for a bounded drain: no new load, until
   no client has a request pending or [drain_limit] of simulated time
   has passed. *)
let drain_limit = Time.sec 5

let run_cluster f clients rate seconds payload attack mode transport seed trace
    chrome audit metrics prom doctor cap cap_deep cap_chrome span_sample spans_out
    slowest =
  (* Structured observability: causal span tracing for [--span-sample]
     or [--spans], a capture (for file export and the run digest)
     whenever any trace output is requested, a console printer for
     [--trace -], and an online safety auditor for [--audit], all on
     the run's probe. *)
  let probe = Bftmetrics.Probe.create () in
  let span_sample =
    match (span_sample, spans_out) with
    | Some s, _ -> Some (parse_sample s)
    | None, Some _ -> Some 1
    | None, None -> None
  in
  Option.iter (fun sample -> Bftmetrics.Probe.enable_spans ~sample probe) span_sample;
  let capture =
    if trace <> None || chrome <> None then Some (Bftaudit.Capture.attach probe)
    else None
  in
  let stop_printing =
    if trace = Some "-" then
      Bftmetrics.Probe.subscribe probe (fun ev -> print_endline (Bftmetrics.Event.to_string ev))
    else ignore
  in
  let auditor =
    if audit then Some (Bftaudit.Auditor.attach ~probe ~n:((3 * f) + 1) ~f ()) else None
  in
  let ordering =
    match mode with
    | "redundant" -> Rbft.Params.Redundant
    | "concurrent" -> Rbft.Params.Concurrent
    | other -> failwith ("unknown mode: " ^ other)
  in
  let params = { (Rbft.Params.default ~f) with Rbft.Params.ordering } in
  let params = if attack = "unfair" then Rbft.Attacks.unfair_params params else params in
  let plan =
    match attack with
    | "none" -> None
    | "worst1" -> Some (Rbft.Attacks.worst1 params)
    | "worst2" -> Some (Rbft.Attacks.worst2 params)
    | "unfair" ->
      Some (Rbft.Attacks.unfair_primary params ~client:0 ~steps:[ (100, Time.ms 1) ])
    | other -> failwith ("unknown attack: " ^ other)
  in
  let transport =
    match transport with "udp" -> Bftnet.Network.Udp | _ -> Bftnet.Network.Tcp
  in
  (* Metrics: enable the registry whenever an export was requested;
     [--metrics] additionally attaches the sim-time sampler so the CSV
     carries a time series rather than only end-of-run totals. *)
  if metrics <> None || prom <> None then Bftmetrics.Probe.set_metrics probe true;
  (* Capacity observability: turn on footprint peak tracking before
     the cluster exists so every probe sees the whole run; deep
     (reachable-words) measurement stays behind its own gate because
     it traverses the heap at snapshot time. *)
  let cap_on = cap || cap_deep || cap_chrome <> None in
  if cap_on then begin
    Bftmetrics.Probe.set_footprints probe true;
    if cap_deep then Bftmetrics.Probe.set_deep probe true
  end;
  let cluster =
    Rbft.Cluster.create ~probe ~seed:(Int64.of_int seed) ~transport ~clients
      ~payload_size:payload params
  in
  (* Host-clock series (the --cap GC gauges) live in a registry of
     their own, which the exporters read and the flight recorder never
     snapshots: a bundle holds simulated state only. *)
  let host_registry = Bftmetrics.Registry.create () in
  let sampler =
    match metrics with
    | Some _ ->
      Some
        (Bftmetrics.Sampler.attach ~period:(Time.ms 100)
           (Rbft.Cluster.engine cluster)
           [ Bftmetrics.Probe.registry probe; host_registry ])
    | None -> None
  in
  (* The doctor attaches before the attack so the flight recorder sees
     the whole run, including the attack's installation effects. *)
  let doctor_t =
    Option.map
      (fun dir ->
        Bftharness.Incident.attach ~dir
          ~extra_fields:[ ("attack", attack); ("mode", mode) ]
          cluster)
      doctor
  in
  (* GC sampler for --cap: periodic Gc.quick_stat deltas folded with
     the footprint probe entries, so the end-of-run summary can report
     peaks and a growth slope; its gauges go to the host registry. *)
  let gcstats =
    if cap_on then begin
      let g = Bftcap.Gcstats.create probe in
      Bftcap.Gcstats.register_gauges g host_registry;
      let engine = Rbft.Cluster.engine cluster in
      let stop_sampling =
        Engine.every engine (Time.ms 100) (fun () ->
            Bftcap.Gcstats.sample g ~now:(Engine.now engine))
      in
      Some (g, stop_sampling)
    end
    else None
  in
  Option.iter (Rbft.Attacks.install cluster) plan;
  Array.iter (fun c -> Rbft.Client.set_rate c rate) (Rbft.Cluster.clients cluster);
  let duration = Time.of_sec_f seconds in
  Rbft.Cluster.run_for cluster duration;
  let traced =
    Option.map
      (fun sample ->
        Bftmetrics.Probe.disable_spans probe;
        (sample, Bftmetrics.Probe.span_array probe))
      span_sample
  in
  let faulty = Option.fold ~none:[] ~some:Rbft.Attacks.faulty plan in
  Printf.printf "simulated %.1fs: executed %d requests (%.1f kreq/s)\n" seconds
    (Rbft.Cluster.total_executed cluster)
    (Rbft.Cluster.throughput_between cluster (Time.ms 200) duration /. 1e3);
  Array.iter
    (fun node ->
      Printf.printf "  node %d: executed %d, instance changes %d%s\n"
        (Rbft.Node.id node) (Rbft.Node.executed_count node)
        (Rbft.Node.instance_changes node)
        (if List.mem (Rbft.Node.id node) faulty then "  [faulty]" else ""))
    (Rbft.Cluster.nodes cluster);
  (* Every line but the agreement verdict reports the state at
     [duration]: it is written to [report], and every observer is
     detached, before the drain the verdict waits for. *)
  let report = Buffer.create 4096 in
  let out ~path contents =
    if path = "-" then Buffer.add_string report contents
    else Bftmetrics.Export.write_file path contents
  in
  Printf.bprintf report "events simulated: %d\n"
    (Engine.events_processed (Rbft.Cluster.engine cluster));
  Option.iter
    (fun (sample, spans) ->
      Printf.bprintf report "\nspans sampled 1/%d:\n\n" sample;
      Buffer.add_string report (analysis ~slowest spans);
      Printf.bprintf report "\nspan digest: %s\n" (Bftspan.Tracer.digest probe);
      Option.iter
        (fun path ->
          Bftspan.Tracer.write_jsonl probe path;
          Printf.bprintf report "spans: %d -> %s\n" (Array.length spans) path)
        spans_out)
    traced;
  (match gcstats with
   | Some (g, stop_sampling) ->
     stop_sampling ();
     Bftcap.Gcstats.sample g ~now:(Engine.now (Rbft.Cluster.engine cluster));
     Buffer.add_char report '\n';
     Buffer.add_string report (Bftcap.Footprint.table ~deep:cap_deep probe);
     Printf.bprintf report "\nGC over the run (%d samples):\n"
       (Bftcap.Gcstats.sample_count g);
     List.iter
       (fun (k, v) -> Printf.bprintf report "  %-24s %14.0f\n" k v)
       (Bftcap.Gcstats.deltas g);
     Printf.bprintf report "  %-24s %14d\n" "peak_live_words"
       (Bftcap.Gcstats.peak_live_words g);
     Printf.bprintf report "  %-24s %14d\n" "peak_heap_words"
       (Bftcap.Gcstats.peak_heap_words g);
     (match Bftcap.Gcstats.growth g with
      | Some gr ->
        Printf.bprintf report "  %-24s %14.0f words/s%s\n" "live_growth_slope"
          gr.Bftcap.Gcstats.g_live_slope
          (match gr.Bftcap.Gcstats.g_culprit with
           | Some (name, per_s) ->
             Printf.sprintf "  (fastest probe: %s, %+.0f entries/s)" name per_s
           | None -> "")
      | None -> ());
     (match cap_chrome with
      | Some path ->
        Bftcap.Gcstats.write_chrome_counters g path;
        Printf.bprintf report "gc counter trace -> %s\n" path
      | None -> ())
   | None -> ());
  (match sampler with
   | Some s ->
     Bftmetrics.Sampler.detach s;
     let path = Option.get metrics in
     out ~path (Bftmetrics.Export.csv_of_series s);
     if path <> "-" then
       Printf.bprintf report "metrics: %d sample points -> %s\n"
         (Bftmetrics.Sampler.count s) path
   | None -> ());
  (match prom with
   | Some path ->
     out ~path
       (Bftmetrics.Export.prometheus (Bftmetrics.Probe.registry probe)
       ^ Bftmetrics.Export.prometheus host_registry);
     if path <> "-" then Printf.bprintf report "prometheus dump -> %s\n" path
   | None -> ());
  (match capture with
   | Some c ->
     (match trace with
      | Some path when path <> "-" ->
        Bftaudit.Capture.write_jsonl c path;
        Printf.bprintf report "trace: %d events -> %s\n" (Bftaudit.Capture.count c) path
      | Some _ | None -> ());
     (match chrome with
      | Some path ->
        (* With spans on, one timeline: nested spans plus the audit
           instants. *)
        (match traced with
         | Some (_, spans) -> Bftspan.Analyze.write_chrome ~audit:c spans path
         | None -> Bftaudit.Capture.write_chrome_trace c path);
        Printf.bprintf report "chrome trace: %d events -> %s\n"
          (Bftaudit.Capture.count c) path
      | None -> ());
     Printf.bprintf report "trace digest: %s\n" (Bftaudit.Capture.digest c);
     Bftaudit.Capture.detach c
   | None -> ());
  (match doctor_t with
   | Some d ->
     let incidents = Bftdoctor.Doctor.incidents d in
     Printf.bprintf report "doctor: %d incident(s) recorded%s\n" (List.length incidents)
       (match Bftdoctor.Doctor.fires_suppressed d with
        | 0 -> ""
        | n -> Printf.sprintf " (%d further fire(s) suppressed)" n);
     List.iter
       (fun (i : Bftdoctor.Doctor.incident_ref) ->
         Printf.bprintf report "  #%d [%s] at %s: %s\n" i.Bftdoctor.Doctor.i_seq
           i.Bftdoctor.Doctor.i_trigger
           (Time.to_string i.Bftdoctor.Doctor.i_at)
           i.Bftdoctor.Doctor.i_reason;
         (match i.Bftdoctor.Doctor.i_dir with
          | Some dir -> Printf.bprintf report "      bundle: %s\n" dir
          | None -> ());
         Printf.bprintf report "      digest: %s\n" i.Bftdoctor.Doctor.i_digest)
       incidents;
     Bftdoctor.Doctor.detach d
   | None -> ());
  let violations =
    match auditor with
    | Some a ->
      let viols = Bftaudit.Auditor.violations a in
      Printf.bprintf report "safety audit: %d events checked, %d violation(s)\n"
        (Bftaudit.Auditor.events_checked a)
        (List.length viols);
      List.iter
        (fun v ->
          Printf.bprintf report "  %s\n" (Format.asprintf "%a" Bftaudit.Auditor.pp_violation v))
        viols;
      Bftaudit.Auditor.detach a;
      viols
    | None -> []
  in
  stop_printing ();
  let (_ : int) = Rbft.Cluster.drain cluster ~limit:drain_limit in
  Printf.printf "agreement among correct nodes: %b\n"
    (Rbft.Cluster.agreement_ok cluster ~faulty);
  print_string (Buffer.contents report);
  if violations <> [] then exit 1

let run_cmd =
  let f =
    Arg.(
      value & opt int 1
      & info [ "f"; "faults" ] ~doc:"Faults tolerated (n = 3f+1 nodes).")
  in
  let clients = Arg.(value & opt int 10 & info [ "clients" ] ~doc:"Client count.") in
  let rate =
    Arg.(value & opt float 2000.0 & info [ "rate" ] ~doc:"Requests/s per client.")
  in
  let seconds =
    Arg.(value & opt float 2.0 & info [ "seconds" ] ~doc:"Virtual seconds to simulate.")
  in
  let payload =
    Arg.(value & opt int 8 & info [ "payload" ] ~doc:"Request payload bytes.")
  in
  let attack =
    Arg.(
      value & opt string "none"
      & info [ "attack" ] ~doc:"none | worst1 | worst2 | unfair.")
  in
  let mode =
    Arg.(
      value & opt string "redundant"
      & info [ "mode" ]
          ~doc:
            "Ordering mode: $(b,redundant) (every instance orders every \
             request, classic RBFT) or $(b,concurrent) (bftrcc: disjoint \
             client partitions per instance, merged deterministically, so \
             added instances add capacity).")
  in
  let transport =
    Arg.(value & opt string "tcp" & info [ "transport" ] ~doc:"tcp | udp.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~doc:"Simulation seed.") in
  let trace =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"FILE"
          ~doc:
            "Write the structured event trace as JSONL to $(docv), and print \
             the run's chained SHA-256 trace digest. Use '-' to print events \
             to stdout instead of a file.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Write the event trace in Chrome trace_event JSON format to \
             $(docv) (open in chrome://tracing or Perfetto). With spans on, \
             the file nests the traced requests' spans alongside the \
             events.")
  in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Attach the online safety auditor (agreement, quorums, no double \
             execution, checkpoint and instance-change consistency) and report \
             its verdict.")
  in
  let metrics =
    Arg.(
      value
      & opt (some string) None
      & info [ "metrics" ] ~docv:"FILE"
          ~doc:
            "Enable the metric registry, sample it every 100 ms of virtual \
             time and write the series as CSV to $(docv) ('-' for stdout).")
  in
  let prom =
    Arg.(
      value
      & opt (some string) None
      & info [ "prom" ] ~docv:"FILE"
          ~doc:
            "Enable the metric registry and write an end-of-run Prometheus \
             text-format dump to $(docv) ('-' for stdout).")
  in
  let doctor =
    Arg.(
      value
      & opt (some string) None
      & info [ "doctor" ] ~docv:"DIR"
          ~doc:
            "Attach the always-on flight recorder with the default anomaly \
             triggers (instance change, auditor violation, Δ-ratio near \
             miss) and write incident bundles under $(docv). Analyze them \
             with $(b,rbft_sim doctor).")
  in
  let cap =
    Arg.(
      value & flag
      & info [ "cap" ]
          ~doc:
            "Capacity observability: track per-structure footprint peaks and \
             sample GC statistics every 100 ms of virtual time; print the \
             footprint table and a GC summary (with the live-heap growth \
             slope and the fastest-growing structure) at the end.")
  in
  let cap_deep =
    Arg.(
      value & flag
      & info [ "cap-deep" ]
          ~doc:
            "Like $(b,--cap), but also measure each probed structure's \
             approximate exclusive bytes with Obj.reachable_words at snapshot \
             time (heap traversal — slower, never on a hot path).")
  in
  let cap_chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "cap-chrome" ] ~docv:"FILE"
          ~doc:
            "Write the GC sample window (live words, heap words, collection \
             counts) as Chrome trace_event counter series to $(docv) (open \
             in Perfetto). Implies $(b,--cap).")
  in
  let span_sample =
    Arg.(
      value
      & opt (some string) None
      & info [ "span-sample" ] ~docv:"1/N"
          ~doc:
            "Trace every $(docv)-th request (by request id) causally and \
             print the per-stage critical-path latency attribution, the \
             slowest requests' paths, the per-client spread and the span \
             digest.")
  in
  let spans_out =
    Arg.(
      value
      & opt (some string) None
      & info [ "spans" ] ~docv:"FILE"
          ~doc:
            "Write the traced spans as JSONL to $(docv) (read back by \
             $(b,rbft_sim spans)). Traces every request unless \
             $(b,--span-sample) says otherwise.")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Simulate an RBFT cluster")
    Term.(
      const run_cluster $ f $ clients $ rate $ seconds $ payload $ attack $ mode
      $ transport $ seed $ trace $ chrome $ audit $ metrics $ prom $ doctor
      $ cap $ cap_deep $ cap_chrome $ span_sample $ spans_out $ slowest_arg)

(* ------------------------------------------------------------------ *)
(* spans                                                              *)
(* ------------------------------------------------------------------ *)

let spans_cmd =
  let input =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Span JSONL written by $(b,run --spans).")
  in
  Cmd.v
    (Cmd.info "spans"
       ~doc:
         "Print the per-stage critical-path latency attribution of a \
          captured span JSONL, without running a simulation")
    Term.(
      const (fun path slowest ->
          print_string (analysis ~slowest (Bftspan.Analyze.read_jsonl path)))
      $ input $ slowest_arg)

(* ------------------------------------------------------------------ *)
(* experiment                                                         *)
(* ------------------------------------------------------------------ *)

let run_experiment id quick audit =
  let open Bftharness in
  match Experiments.find id with
  | None ->
    Printf.eprintf "unknown experiment %S\n" id;
    exit 2
  | Some group ->
    let audit = Audit.create ~enabled:audit () in
    List.iter Report.print (group.Experiments.run ~audit ~quick);
    Option.iter (Printf.printf "Safety audit: %s\n") (Audit.summary audit)

let experiment_cmd =
  let id =
    Arg.(
      value & opt string "fig12"
      & info [ "id" ]
          ~doc:
            ("A table id or a group label; the whole group runs and prints: "
            ^ String.concat "; "
                (List.map
                   (fun g ->
                     Printf.sprintf "%s (%s)" g.Bftharness.Experiments.label
                       (String.concat ", " g.Bftharness.Experiments.ids))
                   Bftharness.Experiments.groups)
            ^ "."))
  in
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Short windows.") in
  let audit =
    Arg.(
      value & flag
      & info [ "audit" ] ~doc:"Safety-audit every run inside the experiment.")
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Run one experiment from the harness")
    Term.(const run_experiment $ id $ quick $ audit)

(* ------------------------------------------------------------------ *)
(* compare                                                            *)
(* ------------------------------------------------------------------ *)

let compare_protocols payload =
  let open Bftharness in
  Printf.printf "calibrated peaks, %dB requests (f=1)\n" payload;
  List.iter
    (fun proto ->
      Printf.printf "  %-10s %.1f kreq/s\n" (Flavour.name proto)
        (Calibrate.peak_rate proto ~size:payload /. 1e3))
    Flavour.[ Rbft; Rbft_udp; Aardvark; Spinning; Prime ];
  Printf.printf "(run examples/compare_protocols.exe for measured numbers)\n"

let compare_cmd =
  let payload =
    Arg.(value & opt int 8 & info [ "payload" ] ~doc:"Request payload bytes.")
  in
  Cmd.v
    (Cmd.info "compare" ~doc:"Show calibrated peaks of all protocols")
    Term.(const compare_protocols $ payload)

(* ------------------------------------------------------------------ *)
(* scenario                                                           *)
(* ------------------------------------------------------------------ *)

let print_result r =
  print_endline (Bftchaos.Runner.summary r);
  List.iter
    (fun v -> Format.printf "  %a@." Bftaudit.Auditor.pp_violation v)
    r.Bftchaos.Runner.safety_violations;
  (match r.Bftchaos.Runner.digest with
   | Some d -> Printf.printf "audit digest: %s\n" d
   | None -> ());
  if not (Bftchaos.Runner.liveness_ok r) then
    Printf.printf "liveness: %d of %d requests incomplete after drain\n"
      (r.Bftchaos.Runner.sent - r.Bftchaos.Runner.completed)
      r.Bftchaos.Runner.sent

let print_incidents incidents =
  List.iter
    (fun (i : Bftdoctor.Doctor.incident_ref) ->
      Printf.printf "incident #%d [%s]: %s\n" i.Bftdoctor.Doctor.i_seq
        i.Bftdoctor.Doctor.i_trigger i.Bftdoctor.Doctor.i_reason;
      match i.Bftdoctor.Doctor.i_dir with
      | Some dir -> Printf.printf "  bundle: %s\n" dir
      | None -> ())
    incidents

let run_scenario file verbose doctor =
  match Bftchaos.Scenario.load file with
  | Error e ->
    Printf.eprintf "cannot load %s: %s\n" file e;
    exit 2
  | Ok s ->
    if verbose then
      List.iter
        (fun f -> print_endline ("  " ^ Bftchaos.Fault.describe f))
        s.Bftchaos.Scenario.faults;
    let r = Bftchaos.Runner.run ~capture:true ?doctor_dir:doctor s in
    print_result r;
    print_incidents r.Bftchaos.Runner.incidents;
    if not (Bftchaos.Runner.ok r) then exit 1

let scenario_cmd =
  let file =
    Arg.(
      required
      & opt (some string) None
      & info [ "file" ] ~docv:"FILE" ~doc:"Scenario file (.scn) to replay.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print the fault plan first.")
  in
  let doctor =
    Arg.(
      value
      & opt (some string) None
      & info [ "doctor" ] ~docv:"DIR"
          ~doc:
            "Ride a flight recorder along the replay and write incident \
             bundles under $(docv) (the active .scn is embedded in each \
             bundle).")
  in
  Cmd.v
    (Cmd.info "scenario"
       ~doc:
         "Replay a chaos scenario deterministically, print the audit digest \
          and exit non-zero on any safety or liveness violation")
    Term.(const run_scenario $ file $ verbose $ doctor)

(* ------------------------------------------------------------------ *)
(* explore                                                            *)
(* ------------------------------------------------------------------ *)

let run_explore count seed f duration drain protocols out_dir shrink_budget verbose
    bundles =
  let protocols =
    match protocols with
    | "" -> Array.of_list Flavour.all
    | names ->
      names |> String.split_on_char ','
      |> List.map (fun n ->
             match Flavour.of_slug (String.trim n) with
             | Some p -> p
             | None -> failwith ("unknown protocol: " ^ n))
      |> Array.of_list
  in
  let grammar =
    {
      Bftchaos.Explorer.default_grammar with
      Bftchaos.Explorer.protocols;
      f;
      duration = Time.of_sec_f duration;
      drain = Time.of_sec_f drain;
    }
  in
  let progress r =
    if verbose || not (Bftchaos.Runner.ok r) then
      print_endline (Bftchaos.Runner.summary r)
  in
  let sweep =
    Bftchaos.Explorer.sweep ~grammar ~progress ?bundle_dir:bundles
      ~seed:(Int64.of_int seed) ~count ()
  in
  Printf.printf "%d/%d scenarios passed\n" sweep.Bftchaos.Explorer.passed
    sweep.Bftchaos.Explorer.total;
  let failures = sweep.Bftchaos.Explorer.failures in
  if failures <> [] then begin
    (match out_dir with
     | Some dir ->
       (try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
       List.iter
         (fun r ->
           let s = r.Bftchaos.Runner.scenario in
           let still_fails c = not (Bftchaos.Runner.ok (Bftchaos.Runner.run c)) in
           let minimized, spent =
             Bftchaos.Shrink.minimize ~budget:shrink_budget still_fails s
           in
           let path =
             Filename.concat dir (minimized.Bftchaos.Scenario.name ^ ".scn")
           in
           Bftchaos.Scenario.save minimized path;
           Printf.printf "shrunk %s (%d candidate runs) -> %s\n"
             s.Bftchaos.Scenario.name spent path)
         failures
     | None -> ());
    exit 1
  end

let explore_cmd =
  let count =
    Arg.(value & opt int 50 & info [ "count" ] ~doc:"Scenarios to sample.")
  in
  let seed = Arg.(value & opt int 7 & info [ "seed" ] ~doc:"Sweep seed.") in
  let f = Arg.(value & opt int 1 & info [ "f" ] ~doc:"Faults tolerated (n = 3f+1).") in
  let duration =
    Arg.(
      value & opt float 1.0
      & info [ "duration" ] ~doc:"Chaos phase, virtual seconds.")
  in
  let drain =
    Arg.(
      value & opt float 1.5
      & info [ "drain" ] ~doc:"Drain phase (liveness bound), virtual seconds.")
  in
  let protocols =
    Arg.(
      value & opt string ""
      & info [ "protocols" ]
          ~doc:
            ("Comma-separated subset: "
            ^ String.concat "," (List.map Flavour.slug Flavour.all)
            ^ "."))
  in
  let out_dir =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Where to write minimized .scn repro files for failures.")
  in
  let shrink_budget =
    Arg.(
      value & opt int 150
      & info [ "shrink-budget" ] ~doc:"Max candidate runs per shrink.")
  in
  let verbose =
    Arg.(value & flag & info [ "verbose" ] ~doc:"Print every run, not only failures.")
  in
  let bundles =
    Arg.(
      value
      & opt (some string) None
      & info [ "bundles" ] ~docv:"DIR"
          ~doc:
            "Ride a flight recorder along every sampled run; incident \
             bundles land under $(docv)/<scenario-name>/.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:
         "Sample random fault scenarios across protocols, check safety and \
          liveness oracles, shrink and save any failure")
    Term.(
      const run_explore $ count $ seed $ f $ duration $ drain $ protocols $ out_dir
      $ shrink_budget $ verbose $ bundles)

(* ------------------------------------------------------------------ *)
(* doctor                                                             *)
(* ------------------------------------------------------------------ *)

let run_doctor bundle json chrome no_verify =
  if not (Sys.file_exists (Filename.concat bundle "manifest.json")) then begin
    Printf.eprintf "%s: not an incident bundle (no manifest.json)\n" bundle;
    exit 2
  end;
  (if not no_verify then
     match Bftdoctor.Bundle.verify ~dir:bundle with
     | Ok _ -> ()
     | Error e ->
       Printf.eprintf "bundle integrity check FAILED: %s\n" e;
       exit 3);
  let l = Bftdoctor.Bundle.load ~dir:bundle in
  if json then print_endline (Bftdoctor.Analyze.verdict_json l)
  else print_string (Bftdoctor.Analyze.report l);
  match chrome with
  | Some path ->
    Bftdoctor.Analyze.write_chrome l path;
    if not json then Printf.printf "chrome trace -> %s\n" path
  | None -> ()

let doctor_cmd =
  let bundle =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"BUNDLE" ~doc:"Incident bundle directory to analyze.")
  in
  let json =
    Arg.(
      value & flag
      & info [ "json" ]
          ~doc:"Print a one-line machine-readable verdict instead of the report.")
  in
  let chrome =
    Arg.(
      value
      & opt (some string) None
      & info [ "chrome-trace" ] ~docv:"FILE"
          ~doc:
            "Export the incident window (spans + audit instants) as a Chrome \
             trace_event file to $(docv) (open in Perfetto).")
  in
  let no_verify =
    Arg.(
      value & flag
      & info [ "no-verify" ]
          ~doc:"Skip the chained-digest integrity check before analyzing.")
  in
  Cmd.v
    (Cmd.info "doctor"
       ~doc:
         "Analyze an incident bundle: verify its chained digest, reconstruct \
          the timeline, attribute the cause (node / instance / stage) and \
          print a forensic report or JSON verdict")
    Term.(const run_doctor $ bundle $ json $ chrome $ no_verify)

(* ------------------------------------------------------------------ *)
(* mc                                                                 *)
(* ------------------------------------------------------------------ *)

let run_mc requests max_faults depth no_por stats_flag mutate seed out compare_por
    =
  let cfg =
    {
      Bftmc.World.default_config with
      Bftmc.World.requests;
      depth;
      mutate;
      seed = Int64.of_int seed;
    }
  in
  let por = not no_por in
  let progress (s : Bftmc.Search.stats) =
    Printf.eprintf "  ... %d states, %d dedup, %d leaves\n%!"
      s.Bftmc.Search.states s.Bftmc.Search.dedup_hits s.Bftmc.Search.leaves
  in
  let on_progress = if stats_flag then Some progress else None in
  let outcome = Bftmc.Search.run ~por ~max_faults ?on_progress cfg in
  let s = outcome.Bftmc.Search.stats in
  Printf.printf "bftmc: n=%d f=%d requests=%d depth<=%d max-faults=%d por=%b%s\n"
    ((3 * cfg.Bftmc.World.f) + 1)
    cfg.Bftmc.World.f requests depth max_faults por
    (if mutate then " mutate=ic-quorum-low" else "");
  Printf.printf "states explored:  %d\n" s.Bftmc.Search.states;
  Printf.printf "dedup hits:       %d\n" s.Bftmc.Search.dedup_hits;
  Printf.printf "leaves judged:    %d\n" s.Bftmc.Search.leaves;
  if stats_flag then begin
    Printf.printf "replays:          %d\n" s.Bftmc.Search.replays;
    Printf.printf "max depth:        %d\n" s.Bftmc.Search.max_depth;
    Printf.printf "por skipped:      %d (+%d pruned subtrees)\n"
      s.Bftmc.Search.por_skipped s.Bftmc.Search.por_pruned_subtrees;
    Printf.printf "frontier choices: %d\n" s.Bftmc.Search.choices_seen;
    List.iter
      (fun (crashes, (ps : Bftmc.Search.stats)) ->
        Printf.printf "  placement [%s]: %d states, %d leaves\n"
          (String.concat "," (List.map string_of_int crashes))
          ps.Bftmc.Search.states ps.Bftmc.Search.leaves)
      outcome.Bftmc.Search.per_placement
  end;
  (match outcome.Bftmc.Search.counterexample with
   | None ->
     if compare_por && por then begin
       (* Same sweep without the reduction, to report the factor. *)
       let base = Bftmc.Search.run ~por:false ~max_faults cfg in
       let b = base.Bftmc.Search.stats in
       Printf.printf "no-por states:    %d\n" b.Bftmc.Search.states;
       Printf.printf "por reduction:    %.2fx\n"
         (float_of_int b.Bftmc.Search.states
         /. float_of_int (Stdlib.max 1 s.Bftmc.Search.states))
     end;
     Printf.printf "verdict: no violation found\n"
   | Some cex ->
     Printf.printf "verdict: VIOLATION\n";
     Format.printf "%a@?" Bftmc.Cex.pp cex;
     let path =
       match out with
       | None -> None
       | Some dir ->
         (try Unix.mkdir dir 0o755
          with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
         Some (Filename.concat dir "mc-cex.scn")
     in
     let repro = Bftmc.Cex.extract ?out:path cex in
     (match path with
      | Some p ->
        Printf.printf "cex scenario: %s (%s, %d shrink runs)\n" p
          (if repro.Bftmc.Cex.reproduced then "reproduces, shrunk"
           else "schedule-sensitive, saved unshrunk")
          repro.Bftmc.Cex.shrink_tests
      | None -> ());
     Printf.printf "invariant digest: %s\n" repro.Bftmc.Cex.target_digest;
     exit 1)

let mc_cmd =
  let requests =
    Arg.(
      value & opt int 2
      & info [ "requests" ] ~doc:"Client requests in the workload burst.")
  in
  let max_faults =
    Arg.(
      value & opt int 0
      & info [ "max-faults" ]
          ~doc:"Sweep crash placements of up to this many nodes (capped at f).")
  in
  let depth =
    Arg.(value & opt int 6 & info [ "depth" ] ~doc:"Schedule length bound.")
  in
  let no_por =
    Arg.(
      value & flag
      & info [ "no-por" ] ~doc:"Disable the partial-order reduction.")
  in
  let stats_flag =
    Arg.(
      value & flag
      & info [ "stats" ] ~doc:"Print detailed search statistics.")
  in
  let mutate =
    Arg.(
      value & flag
      & info [ "mutate" ]
          ~doc:
            "Self-test: break the instance-change quorum (accept 1 vote \
             instead of 2f+1) and expect a violation.")
  in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"World seed.") in
  let out =
    Arg.(
      value
      & opt (some string) None
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Where to write the counterexample .scn scenario.")
  in
  let compare_por =
    Arg.(
      value & flag
      & info [ "compare-por" ]
          ~doc:"After a clean sweep, rerun without POR and report the factor.")
  in
  Cmd.v
    (Cmd.info "mc"
       ~doc:
         "Exhaustively model-check delivery orders and crash placements of a \
          small cluster; exit non-zero with a shrunk .scn repro on any \
          safety, agreement or instance-change-liveness violation")
    Term.(
      const run_mc $ requests $ max_faults $ depth $ no_por $ stats_flag
      $ mutate $ seed $ out $ compare_por)

let () =
  let doc = "RBFT: Redundant Byzantine Fault Tolerance (ICDCS 2013) reproduction" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "rbft_sim" ~doc)
          [ run_cmd; spans_cmd; experiment_cmd; compare_cmd; scenario_cmd; mc_cmd;
            explore_cmd; doctor_cmd ]))
