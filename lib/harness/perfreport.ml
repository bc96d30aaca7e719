(* Machine-readable performance report (BENCH_rbft.json).

   One quick evaluation pass over fault-free RBFT at the two request
   sizes the paper reports (8 B and 4 kB) plus the two worst attacks,
   with the metric registry enabled, reduced to the headline numbers a
   CI job can diff: achieved throughput, client end-to-end latency
   percentiles, master-instance ordering percentiles, the under-attack
   throughput ratios, the instance changes each leg completed, the
   simulator's host cost per request and the wall-clock self-profile. *)

open Dessim
open Bftworkload

type run_result = {
  throughput : float;
  p50_ms : float;
  p99_ms : float;
  order_p50_ms : float;
  order_p99_ms : float;
  instance_changes : int;
  host : host;
}

and host = {
  events_per_req : float;
  msgs_per_req : float;
  minor_words_per_req : float;
  sha256_blocks_per_req : float;
  queue_peak : int;
  tracked_peak : int;
  known_peak : int;
  retained_words_per_req : float;
}

module Probe = Bftmetrics.Probe

let duration ~quick = Time.of_sec_f (if quick then 1.0 else 2.0)

(* Percentile [p] of a latency histogram in ms; 0 when it is empty. *)
let percentile_ms h p =
  if Bftmetrics.Hist.count h = 0 then 0.0 else 1e3 *. Bftmetrics.Hist.percentile h p

(* Percentile [p] of a run's merged client latency in ms. *)
let latency_ms (r : _ Experiments.run) p =
  Option.fold ~none:0.0 ~some:(fun h -> percentile_ms h p) r.Experiments.latencies

(* One static saturated report leg: [Experiments.run] on an RBFT
   flavour, plus the host counts and the master-instance ordering
   latency read back from the run's probe, which the caller also gets
   (for the spans of a [span_sample] > 0 leg). *)
let static_run ?(attack = fun _ -> ()) ?(f = 1) ?span_sample ?(flavour = Flavour.Rbft)
    ?(flow = true) ~audit ~with_metrics ~quick ~payload () =
  let rate = Calibrate.saturating_rate ~f flavour ~size:payload in
  let clients = 20 in
  let shape =
    Loadshape.static ~duration:(duration ~quick) ~clients
      ~rate:(rate /. float_of_int clients)
  in
  (* The bench measures the flow-controlled configuration: bounded
     admission keeps the saturating open-loop rate from growing an
     unbounded verification queue (the queue-wait wall), and adaptive
     batching lets the primary trade batch size against delay from the
     live backlog. The budget bounds in-flight requests per node at
     roughly 1.3x the pipe's natural occupancy at peak throughput:
     large enough that bursty slot turnover (batches free dozens of
     slots at once) never idles the verification stage, small enough
     that the queue-wait share of end-to-end latency stays bounded.
     The scaling sweep passes [~flow:false]: it measures the ordering
     modes' scaling laws in isolation, and a budget sized for the f=1
     redundant pipe would throttle concurrent mode's higher capacity
     at f=3 (inflight cap / latency < peak throughput). *)
  let tweak p =
    if flow then { p with Rbft.Params.admission_budget = 128; adaptive_batching = true }
    else p
  in
  (* Host counts start once the attack is installed, from the same state
     in every leg: a domain's first batch digest builds its hashing
     state and digest memos, so one is taken before the counts start. *)
  let words0 = ref 0.0 and blocks0 = ref 0 in
  let attack cluster =
    attack cluster;
    ignore (Pbftcore.Messages.batch_digest [ Pbftcore.Types.desc_of_op ~client:0 ~rid:0 "" ]);
    blocks0 := Bftcrypto.Sha256.blocks_hashed ();
    words0 := Gc.minor_words ()
  in
  let r =
    Experiments.run ~audit ~metrics:with_metrics ?span_sample ~attack (module Rbft) ~f
      ~load:(Experiments.Shape shape) (fun ~probe clients ->
        Flavour.rbft_cluster ~probe ~tweak ~clients ~payload_size:payload ~f flavour)
  in
  let minor_words = Gc.minor_words () -. !words0 in
  let sha_blocks = Bftcrypto.Sha256.blocks_hashed () - !blocks0 in
  let cluster = r.Experiments.cluster in
  let retained = Obj.reachable_words (Obj.repr cluster) in
  let engine = Rbft.Cluster.engine cluster and probe = Rbft.Cluster.probe cluster in
  (* Master-instance ordering latency at correct node 1, read back
     from the registry (re-registration returns the live child). *)
  let order =
    Bftmetrics.Registry.histogram (Probe.registry probe) "bft_ordering_latency_seconds"
      ~labels:[ ("node", "1"); ("instance", "0") ]
  in
  let sum f a = Array.fold_left (fun acc x -> acc + f x) 0 a in
  let completed = sum Rbft.Client.completed (Rbft.Cluster.clients cluster) in
  let per_req x = x /. float_of_int (max 1 completed) in
  let nodes = Rbft.Cluster.nodes cluster in
  ( {
      throughput = r.Experiments.throughput;
      p50_ms = latency_ms r 50.0;
      p99_ms = latency_ms r 99.0;
      order_p50_ms = percentile_ms order 50.0;
      order_p99_ms = percentile_ms order 99.0;
      instance_changes =
        Array.fold_left (fun acc n -> max acc (Rbft.Node.instance_changes n)) 0 nodes;
      host =
        {
          events_per_req = per_req (float_of_int (Engine.events_processed engine));
          msgs_per_req =
            per_req
              (float_of_int
                 (Bftnet.Network.messages_delivered (Rbft.Cluster.network cluster)));
          minor_words_per_req = per_req minor_words;
          sha256_blocks_per_req = per_req (float_of_int sha_blocks);
          queue_peak = Engine.queue_peak engine;
          tracked_peak = sum Rbft.Node.tracked_peak nodes;
          known_peak =
            sum
              (fun n ->
                sum
                  (fun instance -> Pbftcore.Replica.known_peak (Rbft.Node.replica n ~instance))
                  (Array.init (f + 1) Fun.id))
              nodes;
          retained_words_per_req = per_req (float_of_int retained);
        };
    },
    probe )

let size_key = function 8 -> "8B" | 4096 -> "4kB" | n -> string_of_int n ^ "B"

let json_of_result r =
  Printf.sprintf
    {|{"throughput_req_s":%s,"latency_p50_ms":%s,"latency_p99_ms":%s,"ordering_p50_ms":%s,"ordering_p99_ms":%s}|}
    (Bftmetrics.Export.json_float r.throughput)
    (Bftmetrics.Export.json_float r.p50_ms)
    (Bftmetrics.Export.json_float r.p99_ms)
    (Bftmetrics.Export.json_float r.order_p50_ms)
    (Bftmetrics.Export.json_float r.order_p99_ms)

(* The fields of a JSON object, to splice into another. *)
let splice s = String.sub s 1 (String.length s - 2)

let generate ~audit ~quick =
  let module Profile = Bftmetrics.Profile in
  let profile = Profile.create () in
  let sizes = [ 8; 4096 ] in
  (* Every leg's host counts, keyed by its label. *)
  let hosts = ref [] in
  (* One leg, timed in the profile under its label. *)
  let leg ?attack ?span_sample ~with_metrics name payload =
    let label = name ^ "-" ^ size_key payload in
    Profile.time profile ("perfreport:" ^ label) (fun () ->
        let r, probe = static_run ?attack ?span_sample ~audit ~with_metrics ~quick ~payload () in
        hosts := (label, r.host) :: !hosts;
        (r, probe))
  in
  let fault_free =
    List.map (fun payload -> (payload, fst (leg ~with_metrics:true "fault-free" payload))) sizes
  in
  (* Fault-free per-stage latency attribution from dedicated traced runs. *)
  let breakdown =
    List.map
      (fun payload ->
        let _, probe = leg ~with_metrics:false ~span_sample:8 "breakdown" payload in
        (payload, Bftspan.Analyze.summarize (Probe.span_array probe)))
      sizes
  in
  let attacks =
    [ ("worst1", Rbft.Attacks.worst_attack_1);
      ("worst2", Rbft.Attacks.worst_attack_2) ]
  in
  let under_attack =
    List.map
      (fun (name, attack) ->
        ( name,
          List.map
            (fun payload ->
              let att, _ = leg ~attack ~with_metrics:true name payload in
              let ff = List.assoc payload fault_free in
              let rel = if ff.throughput > 0.0 then att.throughput /. ff.throughput else 0.0 in
              (payload, att, rel))
            sizes ))
      attacks
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "bench": "rbft",%s  "mode": "%s",%s|} "\n"
       (if quick then "quick" else "full")
       "\n");
  Buffer.add_string buf "  \"fault_free\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (payload, r) ->
            Printf.sprintf {|    "%s": {%s,"instance_changes":%d}|} (size_key payload)
              (splice (json_of_result r)) r.instance_changes)
          fault_free));
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf "  \"under_attack\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (name, rows) ->
            Printf.sprintf {|    "%s": {%s}|} name
              (String.concat ","
                 (List.map
                    (fun (payload, att, rel) ->
                      Printf.sprintf
                        {|"%s":{"throughput_req_s":%s,"relative_throughput":%s,"instance_changes":%d}|}
                        (size_key payload)
                        (Bftmetrics.Export.json_float att.throughput)
                        (Bftmetrics.Export.json_float rel) att.instance_changes)
                    rows)))
          under_attack));
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf "  \"latency_breakdown\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (payload, (s : Bftspan.Analyze.summary)) ->
            Printf.sprintf
              {|    "%s": {"sample":"1/8","committed":%d,"p50_ms":%s,"share_sum":%s,"stages":{%s}}|}
              (size_key payload) s.Bftspan.Analyze.committed
              (Bftmetrics.Export.json_float s.Bftspan.Analyze.total_p50_ms)
              (Bftmetrics.Export.json_float s.Bftspan.Analyze.share_sum)
              (String.concat ","
                 (List.map
                    (fun (r : Bftspan.Analyze.stage_row) ->
                      Printf.sprintf {|"%s":{"share":%s,"p50_ms":%s}|}
                        (Bftspan.Tag.name r.Bftspan.Analyze.tag)
                        (Bftmetrics.Export.json_float r.Bftspan.Analyze.share)
                        (Bftmetrics.Export.json_float r.Bftspan.Analyze.p50_ms))
                    s.Bftspan.Analyze.stages)))
          breakdown));
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf "  \"host\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.rev_map
          (fun (leg, h) ->
            Printf.sprintf
              {|    "%s": {"events_per_req":%s,"msgs_per_req":%s,"minor_words_per_req":%s,"sha256_blocks_per_req":%s,"queue_peak":%d,"tracked_peak":%d,"known_peak":%d,"retained_words_per_req":%s}|}
              leg
              (Bftmetrics.Export.json_float h.events_per_req)
              (Bftmetrics.Export.json_float h.msgs_per_req)
              (Bftmetrics.Export.json_float h.minor_words_per_req)
              (Bftmetrics.Export.json_float h.sha256_blocks_per_req)
              h.queue_peak h.tracked_peak h.known_peak
              (Bftmetrics.Export.json_float h.retained_words_per_req))
          !hosts));
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "profile": %s%s|} (Bftmetrics.Profile.json profile) "\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write ~audit ~quick ~path =
  let json = generate ~audit ~quick in
  Bftmetrics.Export.to_channel_or_file ~path json;
  if path <> "-" then Printf.printf "performance report -> %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Scaling sweep (BENCH_scale.json)                                   *)
(* ------------------------------------------------------------------ *)

let generate_scale ~audit ~quick =
  let module Profile = Bftmetrics.Profile in
  let profile = Profile.create () in
  let payload = 8 in
  let rows =
    List.map
      (fun f ->
        let n = (3 * f) + 1 and instances = f + 1 in
        let r =
          Profile.time profile (Printf.sprintf "perfreport:scale-f%d" f) (fun () ->
              fst (static_run ~f ~flow:false ~audit ~with_metrics:true ~quick ~payload ()))
        in
        (* Same cluster size in concurrent (bftrcc) ordering, where the
           f+1 instances order disjoint client partitions instead of
           redundantly ordering everything — the column that shows the
           added instances turning into added capacity. *)
        let c =
          Profile.time profile (Printf.sprintf "perfreport:scale-f%d-concurrent" f)
            (fun () ->
              fst
                (static_run ~f ~flavour:Flavour.Rbft_concurrent ~flow:false ~audit
                   ~with_metrics:true ~quick ~payload ()))
        in
        (f, n, instances, r, c))
      [ 1; 2; 3 ]
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "bench": "rbft-scale",%s  "mode": "%s",%s  "payload": "%s",%s|}
       "\n"
       (if quick then "quick" else "full")
       "\n" (size_key payload) "\n");
  Buffer.add_string buf "  \"sweep\": {\n";
  Buffer.add_string buf
    (String.concat ",\n"
       (List.map
          (fun (f, n, instances, r, c) ->
            Printf.sprintf {|    "f%d": {"n":%d,"instances":%d,%s,"concurrent":%s}|}
              f n instances
              (splice (json_of_result r))
              (json_of_result c))
          rows));
  Buffer.add_string buf "\n  },\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "profile": %s%s|} (Bftmetrics.Profile.json profile) "\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_scale ~audit ~quick ~path =
  let json = generate_scale ~audit ~quick in
  Bftmetrics.Export.to_channel_or_file ~path json;
  if path <> "-" then Printf.printf "scaling report -> %s\n%!" path

(* ------------------------------------------------------------------ *)
(* Client-population sweep (BENCH_clients.json)                       *)
(* ------------------------------------------------------------------ *)

(* Aggregate footprint peaks per structure name: the per-owner detail
   (4 nodes x ~12 probes) is incident-bundle material; the bench
   records the worst owner of each structure, so a structure that
   stays empty reads 0 rather than going missing. *)
let footprint_peaks_by_name probe =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (key, peak) ->
      let name =
        match String.index_opt key '/' with
        | Some i -> String.sub key 0 i
        | None -> key
      in
      match Hashtbl.find_opt tbl name with
      | Some prev when prev >= peak -> ()
      | Some _ | None -> Hashtbl.replace tbl name peak)
    (Bftcap.Footprint.peak_entries probe);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type clients_point = {
  cp_clients : int;
  cp_active : int;
  cp_offered : float;
  cp_throughput : float;
  cp_p50_ms : float;
  cp_p99_ms : float;
  cp_gc : (string * float) list;
  cp_setup_live : int;
  cp_peak_live : int;
  cp_peak_heap : int;
  cp_footprint : (string * int) list;
}

let clients_run ~quick ~population =
  let duration = Time.of_sec_f (if quick then 0.6 else 1.5) in
  (* Fixed aggregate load well under saturation: the sweep variable is
     the population, and what it measures is what O(clients) state
     costs — not another throughput ceiling. The defaults are the
     bounded design: request state is retired structurally, and the
     Ω latency table stays empty while Ω is off. *)
  let params = Rbft.Params.default ~f:1 in
  let pop =
    Population.create ~active:(Stdlib.min population 200)
      ~churn_fraction:0.1 ~clients:population ~aggregate_rate:4000.0
      ~duration ()
  in
  (* Periodic GC/footprint sampling on virtual time, started with the
     load: 24 ticks, the last at the end of the load, which stops the
     series so no further tick stays pending. *)
  let sampler = ref None in
  let start_sampler cluster =
    let engine = Rbft.Cluster.engine cluster in
    let gcs = Bftcap.Gcstats.create (Rbft.Cluster.probe cluster) in
    let stop_at = Time.add (Engine.now engine) duration in
    let stop = ref ignore in
    stop :=
      Engine.every engine (Time.mul_f duration (1.0 /. 24.0)) (fun () ->
          Bftcap.Gcstats.sample gcs ~now:(Engine.now engine);
          if Engine.now engine >= stop_at then !stop ());
    sampler := Some gcs
  in
  (* The live words the cluster's construction adds, measured between
     full major collections (as benchmark/measure.ml measures set-up):
     the per-registered-client cost that a [bench_diff --gates] row
     bounds. *)
  let setup_live_words = ref 0 in
  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let r =
    Experiments.run ~footprints:true ~attack:start_sampler ~from_:(Time.ms 100) (module Rbft)
      ~f:1 ~load:(Experiments.Population pop) (fun ~probe clients ->
        let before = live_words () in
        let cluster = Rbft.Cluster.create ~probe ~clients ~payload_size:8 params in
        setup_live_words := live_words () - before;
        cluster)
  in
  let cluster = r.Experiments.cluster in
  let gcs = Option.get !sampler in
  Bftcap.Gcstats.sample gcs ~now:(Engine.now (Rbft.Cluster.engine cluster));
  {
    cp_clients = population;
    cp_active = Population.active pop;
    cp_offered = Population.offered_total pop;
    cp_throughput = r.Experiments.throughput;
    cp_p50_ms = latency_ms r 50.0;
    cp_p99_ms = latency_ms r 99.0;
    cp_gc = Bftcap.Gcstats.deltas gcs;
    cp_setup_live = !setup_live_words;
    cp_peak_live = Bftcap.Gcstats.peak_live_words gcs;
    cp_peak_heap = Bftcap.Gcstats.peak_heap_words gcs;
    cp_footprint = footprint_peaks_by_name (Rbft.Cluster.probe cluster);
  }

let json_of_clients_point p =
  Printf.sprintf
    {|    {"clients":%d,"active":%d,"offered_req":%s,"throughput_req_s":%s,"latency_p50_ms":%s,"latency_p99_ms":%s,
     "gc":{%s,"setup_live_words":%d,"peak_live_words":%d,"peak_heap_words":%d},
     "footprint_peak":{%s}}|}
    p.cp_clients p.cp_active
    (Bftmetrics.Export.json_float p.cp_offered)
    (Bftmetrics.Export.json_float p.cp_throughput)
    (Bftmetrics.Export.json_float p.cp_p50_ms)
    (Bftmetrics.Export.json_float p.cp_p99_ms)
    (String.concat ","
       (List.map
          (fun (k, v) ->
            Printf.sprintf {|"%s":%s|} k (Bftmetrics.Export.json_float v))
          p.cp_gc))
    p.cp_setup_live p.cp_peak_live p.cp_peak_heap
    (String.concat ","
       (List.map
          (fun (k, v) -> Printf.sprintf {|"%s":%d|} k v)
          p.cp_footprint))

let generate_clients ~quick =
  let module Profile = Bftmetrics.Profile in
  let profile = Profile.create () in
  let points =
    if quick then [ 100; 1_000; 10_000; 100_000 ] else [ 1_000; 10_000; 50_000 ]
  in
  let rows =
    List.map
      (fun population ->
        Profile.time profile (Printf.sprintf "perfreport:clients-%d" population)
          (fun () -> clients_run ~quick ~population))
      points
  in
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf
    (Printf.sprintf
       {|  "bench": "rbft-clients",%s  "schema": "bftcap-clients-v1",%s  "mode": "%s",%s|}
       "\n" "\n"
       (if quick then "quick" else "full")
       "\n");
  Buffer.add_string buf "  \"sweep\": [\n";
  Buffer.add_string buf
    (String.concat ",\n" (List.map json_of_clients_point rows));
  Buffer.add_string buf "\n  ],\n";
  Buffer.add_string buf
    (Printf.sprintf {|  "profile": %s%s|} (Bftmetrics.Profile.json profile) "\n");
  Buffer.add_string buf "}\n";
  Buffer.contents buf

let write_clients ~quick ~path =
  let json = generate_clients ~quick in
  Bftmetrics.Export.to_channel_or_file ~path json;
  if path <> "-" then Printf.printf "client-population report -> %s\n%!" path
