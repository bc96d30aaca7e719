(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section VI) plus the ablations of DESIGN.md,
   and runs Bechamel micro-benchmarks of the substrate costs.

   Usage:
     dune exec bench/main.exe             -- everything, full windows
     dune exec bench/main.exe -- --quick  -- everything, short windows
     dune exec bench/main.exe -- --only fig7a,fig12  -- 'none': no figures
     dune exec bench/main.exe -- --skip-micro | --only-micro
     dune exec bench/main.exe -- --audit     -- safety-audit every run
     dune exec bench/main.exe -- --metrics BENCH_rbft.json
                                          -- machine-readable perf report
     dune exec bench/main.exe -- --scale [BENCH_scale.json]
                                          -- f = 1..3 scaling sweep only
     dune exec bench/main.exe -- --clients [BENCH_clients.json]
                                          -- client-population capacity
                                             sweep only (peak live words,
                                             GC stats, footprint peaks)
     dune exec bench/main.exe -- --seeds 5  -- fault-free baselines across
                                             5 seeds, mean +/- spread
*)

open Bftharness

let micro_benchmarks () =
  (* Every row runs against a probe of its own, with each switch off
     unless the row turns it on. *)
  let probe = Bftmetrics.Probe.create () in
  let open Bechamel in
  let payload_4k = String.make 4096 'x' in
  let tests =
    [
      Test.make ~name:"sha256-8B"
        (Staged.stage (fun () -> ignore (Bftcrypto.Sha256.digest_string "12345678")));
      (* The hash-chain step (ledger and replica checkpoint chains):
         two 32 B digests, hashed as one 64 B input. The chain advances
         on every call, so no step is a hit in the memo of recent
         steps: each is really hashed. *)
      (let d = ref (Bftcrypto.Sha256.digest_string "chain") in
       Test.make ~name:"sha256-64B"
         (Staged.stage (fun () -> d := Bftcrypto.Sha256.digest_concat !d !d)));
      Test.make ~name:"sha256-4kB"
        (Staged.stage (fun () -> ignore (Bftcrypto.Sha256.digest_string payload_4k)));
      (* A fresh message per call, so neither hash of the HMAC is a
         memo hit. *)
      (let msg = Bytes.of_string (String.sub payload_4k 0 64) and n = ref 0 in
       Test.make ~name:"hmac-sha256-64B"
         (Staged.stage (fun () ->
              incr n;
              Bytes.set_int64_le msg 0 (Int64.of_int !n);
              ignore (Bftcrypto.Hmac.mac ~key:"key" (Bytes.to_string msg)))));
      Test.make ~name:"wire-codec-roundtrip"
        (Staged.stage (fun () ->
             let w = Bftnet.Wire.Writer.create () in
             Bftnet.Wire.Writer.varint w 123456;
             Bftnet.Wire.Writer.string w "hello world";
             let r = Bftnet.Wire.Reader.of_string (Bftnet.Wire.Writer.contents w) in
             ignore (Bftnet.Wire.Reader.varint r);
             ignore (Bftnet.Wire.Reader.string r)));
      (* The two quorum-tracking representations, same workload: seven
         votes arrive for one entry (n = 10, f = 3), each vote is
         dedup-checked, recorded, and the matching count compared to
         the 2f+1 = 7 quorum. The assoc variant is the pre-bitset
         hot path (cons + List.mem_assoc + List.filter per vote). The
         vote set is allocated once, like a log entry's, and reset per
         round: the per-vote path is what the protocol pays per
         message. *)
      (let v = Pbftcore.Voteset.Tagged.create ~n:10 in
       Test.make ~name:"voteset-bitset-16x7-votes"
         (Staged.stage (fun () ->
              for _ = 1 to 16 do
                Pbftcore.Voteset.Tagged.clear v;
                Pbftcore.Voteset.Tagged.set_reference v "digest";
                let reached = ref false in
                for r = 0 to 6 do
                  if Pbftcore.Voteset.Tagged.add v ~replica:r ~digest:"digest"
                  then
                    if Pbftcore.Voteset.Tagged.matching v >= 7 then
                      reached := true
                done;
                assert !reached
              done)));
      Test.make ~name:"voteset-assoc-16x7-votes"
        (Staged.stage (fun () ->
             for _ = 1 to 16 do
               let votes = ref [] in
               let reached = ref false in
               for r = 0 to 6 do
                 if not (List.mem_assoc r !votes) then begin
                   votes := (r, "digest") :: !votes;
                   let matching =
                     List.length
                       (List.filter
                          (fun (_, d) -> String.equal d "digest")
                          !votes)
                   in
                   if matching >= 7 then reached := true
                 end
               done;
               assert !reached
             done));
      (* Same pair at a production-scale cluster (n = 31, f = 10,
         2f+1 = 21): the assoc walk grows with the vote count, the
         bitset does not. *)
      (let v = Pbftcore.Voteset.Tagged.create ~n:31 in
       Test.make ~name:"voteset-bitset-16x21-votes"
         (Staged.stage (fun () ->
              for _ = 1 to 16 do
                Pbftcore.Voteset.Tagged.clear v;
                Pbftcore.Voteset.Tagged.set_reference v "digest";
                let reached = ref false in
                for r = 0 to 20 do
                  if Pbftcore.Voteset.Tagged.add v ~replica:r ~digest:"digest"
                  then
                    if Pbftcore.Voteset.Tagged.matching v >= 21 then
                      reached := true
                done;
                assert !reached
              done)));
      Test.make ~name:"voteset-assoc-16x21-votes"
        (Staged.stage (fun () ->
             for _ = 1 to 16 do
               let votes = ref [] in
               let reached = ref false in
               for r = 0 to 20 do
                 if not (List.mem_assoc r !votes) then begin
                   votes := (r, "digest") :: !votes;
                   let matching =
                     List.length
                       (List.filter
                          (fun (_, d) -> String.equal d "digest")
                          !votes)
                   in
                   if matching >= 21 then reached := true
                 end
               done;
               assert !reached
             done));
      Test.make ~name:"engine-1k-events"
        (Staged.stage (fun () ->
             let e = Dessim.Engine.create () in
             for i = 1 to 1000 do
               ignore (Dessim.Engine.after e (Dessim.Time.us i) (fun () -> ()))
             done;
             Dessim.Engine.run e));
      (* One event at the queue depth the overload-8B benchmark peaks
         at: 8,066 self-rescheduling events, each firing one pop, one
         dispatch and one push, and stopping [run] so a call is exactly
         one event. *)
      (let e = Dessim.Engine.create () in
       let rng = Dessim.Rng.create 1L in
       let rec tick () =
         ignore
           (Dessim.Engine.after e
              (Dessim.Time.ns (1 + Dessim.Rng.int rng 1_000_000))
              tick);
         Dessim.Engine.stop e
       in
       for _ = 1 to 8_066 do
         ignore
           (Dessim.Engine.after e
              (Dessim.Time.ns (1 + Dessim.Rng.int rng 1_000_000))
              tick)
       done;
       Test.make ~name:"engine-event-depth-8k"
         (Staged.stage (fun () -> Dessim.Engine.run e)));
      (* At the same depth, one event armed at a random instant and
         cancelled straight away: the push and the removal from the
         middle of the heap that a completed request's watchdog or
         backoff retry costs. *)
      (let e = Dessim.Engine.create () in
       let rng = Dessim.Rng.create 1L in
       let arm () =
         Dessim.Engine.after e (Dessim.Time.ns (1 + Dessim.Rng.int rng 1_000_000)) ignore
       in
       for _ = 1 to 8_066 do
         ignore (arm ())
       done;
       Test.make ~name:"engine-cancel-depth-8k"
         (Staged.stage (fun () -> Dessim.Engine.cancel e (arm ()))));
      Test.make ~name:"pbft-order-100-requests"
        (Staged.stage (fun () ->
             let e = Dessim.Engine.create () in
             let delivered = ref 0 in
             let replicas = Array.make 4 None in
             let get i = match replicas.(i) with Some r -> r | None -> assert false in
             for i = 0 to 3 do
               let cfg = Pbftcore.Replica.default_config ~n:4 ~f:1 ~replica_id:i in
               let send dst m =
                 ignore
                   (Dessim.Engine.after e (Dessim.Time.us 50) (fun () ->
                        Pbftcore.Replica.receive (get dst) ~from:i m))
               in
               let broadcast m =
                 for d = 0 to 3 do
                   if d <> i then send d m
                 done
               in
               replicas.(i) <-
                 Some
                   (Pbftcore.Replica.create ~probe e cfg
                      {
                        Pbftcore.Replica.broadcast;
                        deliver =
                          (fun _ descs -> delivered := !delivered + List.length descs);
                        on_view_change = (fun _ -> ());
                      })
             done;
             for rid = 1 to 100 do
               let d = Pbftcore.Types.desc_of_op ~client:0 ~rid "op" in
               Array.iter
                 (function Some r -> Pbftcore.Replica.submit r d | None -> ())
                 replicas
             done;
             Dessim.Engine.run e));
    ]
  in
  print_endline "\n== Micro-benchmarks (Bechamel, ns per operation) ==";
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.4) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  let ols =
    Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |]
  in
  let run_tests tests =
    List.iter
      (fun test ->
        let raw = Benchmark.all cfg [ instance ] test in
        let results = Analyze.all ols instance raw in
        Hashtbl.iter
          (fun name result ->
            match Analyze.OLS.estimates result with
            | Some [ est ] -> Printf.printf "  %-28s %12.1f ns/op\n%!" name est
            | Some _ | None -> Printf.printf "  %-28s (no estimate)\n%!" name)
          results)
      tests
  in
  run_tests tests;
  (* Audit emission cost, mirroring a protocol call site: the event
     record is only allocated behind the [Probe.audit] guard, so the
     disabled case is a field read and a branch. The two tests bracket
     a subscription, so they run outside the shared list. *)
  let emit_guarded () =
    if Bftmetrics.Probe.audit probe then
      Bftmetrics.Probe.emit probe
        {
          Bftmetrics.Event.time = Dessim.Time.us 1;
          node = 1;
          instance = 0;
          kind = Bftmetrics.Event.Prepare_sent { view = 0; seq = 1; digest = "d" };
        }
  in
  run_tests
    [ Test.make ~name:"audit-emit-disabled" (Staged.stage emit_guarded) ];
  let unsubscribe = Bftmetrics.Probe.subscribe probe (fun _ -> ()) in
  run_tests
    [ Test.make ~name:"audit-emit-null-sink" (Staged.stage emit_guarded) ];
  unsubscribe ();
  (* Metric update cost, same discipline: the handles are registered
     once outside the loop, the update is guarded by the probe's
     metrics switch, so the disabled case is a call, a field read and
     a branch and the enabled case a field mutation — no allocation
     either way. The counter row is the network's per-message delivery call, and
     the request row a node's per-request event call (audit, metrics
     and span switches all off). *)
  let nm = Bftmetrics.Probe.net_metrics probe in
  let nodem = Bftmetrics.Probe.node_metrics probe ~node:1 ~instances:2 in
  let rm = Bftmetrics.Probe.replica_metrics probe ~node:1 ~instance:0 in
  let inc_guarded () =
    Bftmetrics.Probe.delivered probe nm Bftmetrics.Probe.Node_node ~size:64
  in
  let received () =
    Bftmetrics.Probe.request_received probe nodem (Dessim.Time.us 1) ~client:0
      ~rid:7 ~size:64
  in
  let observe_guarded () = Bftmetrics.Probe.batch_flushed probe rm ~size:12 in
  run_tests
    [
      Test.make ~name:"metrics-counter-disabled" (Staged.stage inc_guarded);
      Test.make ~name:"probe-event-disabled" (Staged.stage received);
    ];
  Bftmetrics.Probe.set_metrics probe true;
  run_tests
    [
      Test.make ~name:"metrics-counter-enabled" (Staged.stage inc_guarded);
      Test.make ~name:"metrics-hist-observe" (Staged.stage observe_guarded);
    ];
  Bftmetrics.Probe.set_metrics probe false;
  (* Span hook cost at the two hot call sites: a [job] with no parent
     (the common untraced case: one int compare) and a root-sampling
     check. Both must stay in the audit-emit ballpark (< ~10 ns) for
     the hooks to be free when tracing is off. *)
  let now = Dessim.Time.us 1 in
  let job_untraced () =
    ignore
      (Bftmetrics.Probe.job probe ~parent:(-1) ~tag:Bftmetrics.Tag.Crypto_verify ~node:1
         ~instance:0 ~now)
  in
  let root_guarded () = ignore (Bftmetrics.Probe.request_root probe ~client:0 ~rid:7 now) in
  run_tests
    [
      Test.make ~name:"span-job-disabled" (Staged.stage job_untraced);
      Test.make ~name:"span-root-disabled" (Staged.stage root_guarded);
    ];
  (* Flight-recorder hook cost with no doctor attached: the recorder
     rides the probe's event subscription and Registry.snapshot
     (covered above); what it adds of its own is the span-close
     dispatch in [Probe.finish], which with no subscriber must stay in
     the same < ~10 ns ballpark as the other disabled hooks. *)
  Bftmetrics.Probe.enable_spans probe;
  let closed_span = Bftmetrics.Probe.request_root probe ~client:0 ~rid:7 now in
  Bftmetrics.Probe.disable_spans probe;
  let close_dispatch () = Bftmetrics.Probe.finish probe closed_span ~t1:now in
  run_tests
    [
      Test.make ~name:"doctor-span-close-disabled"
        (Staged.stage close_dispatch);
    ];
  (* Footprint hook cost, same discipline as every other gate: [note]
     on a registered footprint is a field read and a branch when
     capacity observability is off — it sits on the request-table
     insert path, so it must stay in the < ~5 ns disabled-hook
     ballpark. The enabled case is an int compare and one or two
     field mutations (peak tracking), no allocation. *)
  let bench_tbl = Hashtbl.create 16 in
  let bench_fp =
    Bftmetrics.Probe.footprint probe ~name:"bench.table" ~owner:"bench"
      ~entries:(fun () -> Hashtbl.length bench_tbl)
      ~root:(fun () -> Some (Obj.repr bench_tbl))
      ()
  in
  let note_guarded () = Bftmetrics.Probe.note probe bench_fp in
  let active_check () =
    if Bftmetrics.Probe.footprints probe then ignore (Sys.opaque_identity 0)
  in
  run_tests
    [
      Test.make ~name:"cap-note-disabled" (Staged.stage note_guarded);
      Test.make ~name:"cap-active-disabled" (Staged.stage active_check);
    ];
  Bftmetrics.Probe.set_footprints probe true;
  run_tests
    [ Test.make ~name:"cap-note-enabled" (Staged.stage note_guarded) ]

let want only id = match only with [] -> true | ids -> List.mem id ids
let ids = List.concat_map (fun g -> g.Experiments.ids) Experiments.groups

(* A malformed command line runs nothing: the error, the usage and exit 2. *)
let bad msg =
  Printf.eprintf
    "main.exe: %s\nusage: main.exe [--quick] [--skip-micro | --only-micro] [--audit]\n\
    \  [--only none|ID,...] [--metrics FILE] [--seeds N] [--scale [FILE]] [--clients [FILE]]\n\
     ids: %s\n"
    msg (String.concat " " ids);
  exit 2

let () =
  let quick = ref false in
  let skip_micro = ref false in
  let only_micro = ref false in
  let only = ref [] in
  let audit = ref false in
  let switches =
    [ ("--quick", quick); ("--skip-micro", skip_micro); ("--only-micro", only_micro);
      ("--audit", audit) ]
  in
  let metrics = ref None in
  let seeds = ref 0 in
  let scale = ref None in
  let clients = ref None in
  let rec parse = function
    | [] -> ()
    | switch :: rest when List.mem_assoc switch switches ->
      List.assoc switch switches := true;
      parse rest
    | "--only" :: arg :: rest ->
      only := String.split_on_char ',' arg;
      List.iter
        (fun id -> if id <> "none" && not (List.mem id ids) then bad ("unknown id " ^ id))
        !only;
      parse rest
    | "--metrics" :: path :: rest ->
      metrics := Some path;
      parse rest
    | "--seeds" :: n :: rest ->
      seeds :=
        (match int_of_string_opt n with
         | Some n when n > 0 -> n
         | _ -> bad ("--seeds takes a positive integer, not " ^ n));
      parse rest
    | "--scale" :: path :: rest
      when path = "-" || not (String.length path > 1 && path.[0] = '-') ->
      scale := Some path;
      parse rest
    | "--scale" :: rest ->
      scale := Some "BENCH_scale.json";
      parse rest
    | "--clients" :: path :: rest
      when path = "-" || not (String.length path > 1 && path.[0] = '-') ->
      clients := Some path;
      parse rest
    | "--clients" :: rest ->
      clients := Some "BENCH_clients.json";
      parse rest
    | arg :: _ -> bad ("unknown or incomplete option " ^ arg)
  in
  parse (List.tl (Array.to_list Sys.argv));
  let quick = !quick in
  (* Every experiment and report run creates a probe of its own; the
     audit totals and the profile span the invocation. *)
  let audit = Audit.create ~enabled:!audit () in
  let profile = Bftmetrics.Profile.create () in
  Printf.printf "RBFT reproduction benchmarks (%s mode)\n"
    (if quick then "quick" else "full");
  if !seeds > 0 then begin
    let t = Unix.gettimeofday () in
    Report.print (Experiments.seed_sweep ~audit ~quick ~seeds:!seeds);
    Printf.printf "  (seed sweep took %.1fs)\n%!" (Unix.gettimeofday () -. t)
  end
  else if !scale <> None || !clients <> None then
    (* Dedicated mode: the sweep is written below, after option
       handling; the figure experiments are skipped. *)
    ()
  else if not !only_micro then begin
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun { Experiments.label; ids; run } ->
        if List.exists (want !only) ids then begin
          let t = Unix.gettimeofday () in
          let tables =
            Bftmetrics.Profile.time profile ("experiments:" ^ label) (fun () ->
                run ~audit ~quick)
          in
          List.iter Report.print (List.filter (fun t -> want !only t.Report.id) tables);
          Printf.printf "  (%s took %.1fs)\n%!" label (Unix.gettimeofday () -. t)
        end)
      Experiments.groups;
    Printf.printf "\nTotal experiment time: %.1fs\n%!" (Unix.gettimeofday () -. t0)
  end;
  if (not !skip_micro) && !only = [] && !seeds = 0 && !scale = None
     && !clients = None
  then
    Bftmetrics.Profile.time profile "micro-benchmarks" micro_benchmarks;
  (match !metrics with
   | Some path -> Perfreport.write ~audit ~quick ~path
   | None -> ());
  (match !scale with
   | Some path -> Perfreport.write_scale ~audit ~quick ~path
   | None -> ());
  (match !clients with
   | Some path -> Perfreport.write_clients ~quick ~path
   | None -> ());
  (match Audit.summary audit with
   | Some s -> Printf.printf "Safety audit: %s\n%!" s
   | None -> ());
  if Bftmetrics.Profile.total profile > 0.0 then begin
    print_endline "\n== Wall-clock profile ==";
    Bftmetrics.Profile.print profile stdout
  end
