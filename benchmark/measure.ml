(* One simulation run of one workload, and everything measured on it.

   A run is either plain or traced. The plain run measures the
   end-to-end metrics and the per-layer counts that cost nothing to
   read (engine events, network counters, client and node counters,
   [Gc.quick_stat]). The traced run replays the same workload and seed
   with the metric registry, 1/8 span sampling and the safety auditor
   attached, and drives the engine in 10 ms slices so queue gauges can
   be sampled between them. Instrumentation must not change the
   schedule: the caller checks that both runs commit the same requests
   in the same order. *)

open Dessim
module Registry = Bftmetrics.Registry

type outcome = {
  values : (string * float) list;  (** every metric this run measured *)
  committed : int;  (** requests executed at node 1 *)
  digest : string;  (** node 1's execution digest *)
  failures : string list;  (** correctness checks that failed *)
  latency : Latency.t;  (** requests completed after the warm-up *)
}

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

(* One line of JSON: how a run crosses from its child process to the
   parent. Numbers print with 17 significant digits, so they read back
   bit for bit. *)
let to_json o =
  Printf.sprintf
    {|{"committed": %d, "digest": "%s", "failures": [%s], "latency": [%s], "values": {%s}}|}
    o.committed o.digest
    (String.concat ", " (List.map (Printf.sprintf "%S") o.failures))
    (String.concat ", " (List.map (fun (i, c) -> Printf.sprintf "[%d, %d]" i c) o.latency))
    (String.concat ", "
       (List.map (fun (k, v) -> Printf.sprintf {|"%s": %s|} k (json_number v)) o.values))

let of_json line =
  let module J = Bftdoctor.Jmini in
  let v = J.parse line in
  let list key f = Option.value ~default:[] (Option.bind (J.mem key v) f) in
  {
    committed = Option.value ~default:0 (J.get_int "committed" v);
    digest = Option.value ~default:"" (J.get_str "digest" v);
    failures = List.filter_map J.str (list "failures" J.arr);
    latency =
      List.filter_map
        (fun b ->
          match J.arr b with
          | Some [ i; c ] -> (
            match (J.to_int i, J.to_int c) with Some i, Some c -> Some (i, c) | _ -> None)
          | _ -> None)
        (list "latency" J.arr);
    values =
      List.map
        (fun (k, x) -> (k, Option.value ~default:nan (J.num x)))
        (list "values" J.obj);
  }

let slice = Time.ms 10
let span_sample = 8

(* Host time is process CPU time: the simulator is single-threaded, and
   on a shared machine wall time would also count time spent waiting
   for a core. *)
let timed f =
  let t0 = Sys.time () in
  let x = f () in
  (x, Sys.time () -. t0)

let sum_clients cluster f =
  Array.fold_left (fun acc c -> acc + f c) 0 (Rbft.Cluster.clients cluster)

let max_nodes cluster f =
  Array.fold_left (fun acc n -> max acc (f n)) 0 (Rbft.Cluster.nodes cluster)

let children name =
  match
    List.find_opt
      (fun fam -> Registry.family_name fam = name)
      (Registry.families Registry.default)
  with
  | None -> []
  | Some fam -> Registry.children_of fam

let label k labels = List.assoc_opt k labels

let counter_sum ?(where = fun _ -> true) name =
  List.fold_left
    (fun acc (labels, i) ->
      match i with
      | Registry.Counter_i c when where labels -> acc + Registry.Counter.value c
      | _ -> acc)
    0 (children name)

let hist ?(where = fun _ -> true) name =
  List.fold_left
    (fun acc (labels, i) ->
      match i with
      | Registry.Histogram_i h when where labels && Bftmetrics.Hist.count h > 0
        -> (
        match acc with
        | None -> Some (Bftmetrics.Hist.copy h)
        | Some m -> Some (Bftmetrics.Hist.merge m h))
      | _ -> acc)
    None (children name)

let pctl h p =
  match h with None -> 0.0 | Some h -> Bftmetrics.Hist.percentile h p

let gauge_fns ~where name =
  List.filter_map
    (fun (labels, i) ->
      match i with
      | Registry.Gauge_fn_i r when where labels -> Some r
      | _ -> None)
    (children name)

(* Host time spent in garbage collection, from the runtime's own event
   ring: the union of all runtime phase intervals (phases nest, so only
   the outermost one is counted). The ring holds a bounded number of
   events, so it must be polled often — between simulation slices. *)
module Gc_clock = struct
  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    total_ns : int64 ref;
  }

  let start () =
    Runtime_events.start ();
    let depth = ref 0 and since = ref 0L and total_ns = ref 0L in
    let ns = Runtime_events.Timestamp.to_int64 in
    let callbacks =
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ ts _ ->
          if !depth = 0 then since := ns ts;
          incr depth)
        ~runtime_end:(fun _ ts _ ->
          if !depth > 0 then begin
            decr depth;
            if !depth = 0 then total_ns := Int64.add !total_ns (Int64.sub (ns ts) !since)
          end)
          (* A lost end event would leave [depth] stuck above zero. *)
        ~lost_events:(fun _ _ -> depth := 0)
        ()
    in
    let c = { cursor = Runtime_events.create_cursor None; callbacks; total_ns } in
    ignore (Runtime_events.read_poll c.cursor c.callbacks None);
    total_ns := 0L;
    c

  let poll c = ignore (Runtime_events.read_poll c.cursor c.callbacks None)

  let seconds c =
    poll c;
    Runtime_events.free_cursor c.cursor;
    Runtime_events.pause ();
    Int64.to_float !(c.total_ns) /. 1e9
end

(* Cost of one engine event seen from outside: [depth] self-rescheduling
   events keep the queue at that depth while each firing pays one pop,
   one dispatch and one push, as the simulation's own events do. *)
let engine_event_ns ~depth =
  let engine = Engine.create ~seed:1L () in
  let rng = Rng.create 1L in
  let rec tick () =
    ignore (Engine.after engine (Time.ns (1 + Rng.int rng 1_000_000)) tick)
  in
  for _ = 1 to max 1 depth do
    tick ()
  done;
  let events = 2_000_000 in
  let until = Time.ms (events / max 1 depth) in
  let (), dt = timed (fun () -> Engine.run ~until engine) in
  dt *. 1e9 /. float_of_int (max 1 (Engine.events_processed engine))

(* Traced-run probes, read between slices. *)
type probes = {
  mutable queue_peak : int;
  mutable pending_peak : int;
  mutable inflight_peak : int;
  mutable backlog_peak_ns : float;
  backlog : (unit -> float) ref list;
}

let probe () =
  {
    queue_peak = 0;
    pending_peak = 0;
    inflight_peak = 0;
    backlog_peak_ns = 0.0;
    backlog =
      gauge_fns "bft_thread_backlog" ~where:(fun l ->
          label "thread" l = Some "verification");
  }

let sample p cluster =
  p.queue_peak <- max p.queue_peak (Engine.queue_size (Rbft.Cluster.engine cluster));
  p.pending_peak <- max p.pending_peak (sum_clients cluster Rbft.Client.pending_count);
  p.inflight_peak <- max p.inflight_peak (max_nodes cluster Rbft.Node.admission_inflight);
  List.iter (fun r -> p.backlog_peak_ns <- Float.max p.backlog_peak_ns (!r ())) p.backlog

let run_sliced cluster ~until ~each =
  let engine = Rbft.Cluster.engine cluster in
  while Engine.now engine < until do
    Engine.run ~until:(Time.min until (Time.add (Engine.now engine) slice)) engine;
    each ()
  done

(* Correct nodes that executed the same number of requests must have
   executed the same sequence. A node that caught up by state transfer
   adopted checkpointed state instead of executing, so its log is
   shorter by construction and is left out, as {!Rbft.Cluster.agreement_ok}
   does. *)
let agreement cluster ~faulty =
  let correct =
    Array.to_list (Rbft.Cluster.nodes cluster)
    |> List.filter (fun n ->
           (not (List.mem (Rbft.Node.id n) faulty))
           && Pbftcore.Replica.state_transfers
                (Rbft.Node.replica n ~instance:(Rbft.Node.master_instance n))
              = 0)
  in
  List.for_all
    (fun a ->
      List.for_all
        (fun b ->
          Rbft.Node.executed_count a <> Rbft.Node.executed_count b
          || String.equal (Rbft.Node.execution_digest a)
               (Rbft.Node.execution_digest b))
        correct)
    correct

let client_latency cluster =
  Array.fold_left
    (fun acc c ->
      let h = Rbft.Client.latencies c in
      if Bftmetrics.Hist.count h = 0 then acc
      else
        match acc with
        | None -> Some (Bftmetrics.Hist.copy h)
        | Some m -> Some (Bftmetrics.Hist.merge m h))
    None (Rbft.Cluster.clients cluster)
  |> Option.fold ~none:[] ~some:Latency.of_hist

let stage_tags =
  Bftspan.Tag.
    [
      Net_transit;
      Queue_wait;
      Crypto_verify;
      Propagate;
      Dispatch;
      Batch_wait;
      Prepare;
      Commit;
      Execution;
      Reply;
      Backoff;
    ]

(* After the measured drain, the cluster keeps running with no new load
   until every request sent has completed or [settle_limit] of simulated
   time has passed. Clients never give up on a request, so one still
   pending then is a request the system failed to serve. *)
let settle_limit = Time.sec 5

let settle cluster =
  let engine = Rbft.Cluster.engine cluster in
  let stop = Time.add (Engine.now engine) settle_limit in
  let pending () = sum_clients cluster Rbft.Client.pending_count in
  while pending () > 0 && Engine.now engine < stop do
    Engine.run ~until:(Time.min stop (Time.add (Engine.now engine) (Time.ms 50))) engine
  done;
  pending ()

(* [gc_clock] additionally times the run's garbage collection and
   counts the heap words [Cluster.create] retains. That costs work: the
   event ring is polled between 10 ms slices of the timed run, and two
   full major collections surround the cluster's creation. So only the
   per-layer pass asks for it. *)
let run ?(trace = false) ?(gc_clock = false) (w : Workload.t) ~seed =
  let params = Workload.params w in
  let faulty = Workload.faulty w in
  let n = Rbft.Params.n params and f = params.Rbft.Params.f in
  Bftaudit.Auditor.reset_declared ();
  Registry.reset Registry.default;
  Bftspan.Tracer.reset ();
  let auditor =
    if trace then begin
      Registry.enable ();
      Bftspan.Tracer.enable ~sample:span_sample ();
      Some (Bftaudit.Auditor.attach ~raise_on_violation:false ~n ~f ())
    end
    else begin
      Registry.disable ();
      None
    end
  in
  let live_words () =
    Gc.full_major ();
    (Gc.quick_stat ()).Gc.live_words
  in
  let words0 = if gc_clock then live_words () else 0 in
  let cluster, create_s =
    timed (fun () ->
        Rbft.Cluster.create ~seed ~clients:(Workload.clients w)
          ~payload_size:w.Workload.payload params)
  in
  let words1 = if gc_clock then live_words () else 0 in
  let (), attack_s =
    timed (fun () -> if w.Workload.attack then Rbft.Attacks.worst_attack_1 cluster)
  in
  let (), load_s = timed (fun () -> Workload.apply w cluster ~seed) in
  let engine = Rbft.Cluster.engine cluster in
  let net = Rbft.Cluster.network cluster in
  let until = Time.add w.Workload.duration w.Workload.drain in
  let probes = if trace then Some (probe ()) else None in
  let gcc = if gc_clock then Some (Gc_clock.start ()) else None in
  let advance until =
    match (probes, gcc) with
    | None, None -> Engine.run ~until engine
    | _ ->
      run_sliced cluster ~until ~each:(fun () ->
          Option.iter (fun p -> sample p cluster) probes;
          Option.iter Gc_clock.poll gcc)
  in
  let gc0 = Gc.quick_stat () in
  let (), warm_s = timed (fun () -> advance w.Workload.warmup) in
  let warm_latency = client_latency cluster in
  let (), rest_s = timed (fun () -> advance until) in
  let run_s = warm_s +. rest_s in
  let gc1 = Gc.quick_stat () in
  let gc_s = Option.map Gc_clock.seconds gcc in
  Bftspan.Tracer.disable ();
  Registry.disable ();
  (* Client-side view: completions are f+1 matching replies. Latency
     counts the requests completed after the warm-up. *)
  let sent = sum_clients cluster Rbft.Client.sent in
  let completed = sum_clients cluster Rbft.Client.completed in
  let retries = sum_clients cluster Rbft.Client.retries in
  let in_window =
    sum_clients cluster (fun c ->
        Bftmetrics.Throughput.count_between
          (Rbft.Client.completion_counter c)
          w.Workload.warmup w.Workload.duration)
  in
  let latency = Latency.sub (client_latency cluster) warm_latency in
  let per_req_f x = x /. float_of_int (max 1 completed) in
  let per_req x = per_req_f (float_of_int x) in
  let window_s = Time.to_sec_f (Time.sub w.Workload.duration w.Workload.warmup) in
  let events = Engine.events_processed engine in
  let node1 = Rbft.Cluster.node cluster 1 in
  let plain =
    [
      ("throughput_req_s", float_of_int in_window /. window_s);
      ("latency_p50_ms", 1e3 *. Latency.percentile latency 50.0);
      ("latency_p99_ms", 1e3 *. Latency.percentile latency 99.0);
      ( "completed_share",
        float_of_int completed /. float_of_int (max 1 sent) );
      ("run_s", run_s);
      ("setup_s", create_s +. attack_s +. load_s);
      ( "peak_heap_mb",
        float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
        /. 1e6 );
      ("sim.events_per_req", per_req events);
      ("sim.events_per_host_s", float_of_int events /. run_s);
      ("net.msgs_per_req", per_req (Bftnet.Network.messages_delivered net));
      ("net.bytes_per_req", per_req (Bftnet.Network.bytes_delivered net));
      ("net.dropped_per_req", per_req (Bftnet.Network.messages_dropped net));
      ( "node.instance_changes",
        float_of_int (max_nodes cluster Rbft.Node.instance_changes) );
      ( "flow.shed_per_req",
        per_req
          (Array.fold_left
             (fun acc n -> acc + Rbft.Node.admission_shed n)
             0 (Rbft.Cluster.nodes cluster)) );
      ("flow.retries_per_req", per_req retries);
      ("flow.busy_replies_per_req", per_req (sum_clients cluster Rbft.Client.busy_replies));
      ( "flow.useful_ratio",
        float_of_int completed /. float_of_int (max 1 (sent + retries)) );
      ("client.sent", float_of_int sent);
      ("client.completed", float_of_int completed);
      ("setup.cluster_create_s", create_s);
      ("setup.load_apply_s", load_s);
      ("setup.attack_s", attack_s);
      ("gc.minor_words_per_req", per_req_f (gc1.Gc.minor_words -. gc0.Gc.minor_words));
      ( "gc.promoted_words_per_req",
        per_req_f (gc1.Gc.promoted_words -. gc0.Gc.promoted_words) );
      ( "gc.major_collections",
        float_of_int (gc1.Gc.major_collections - gc0.Gc.major_collections) );
    ]
  in
  let gc =
    match gc_s with
    | None -> []
    | Some s ->
      [
        ("gc.pause_share", s /. run_s);
        ( "mem.setup_words_per_client",
          float_of_int (words1 - words0) /. float_of_int (Workload.clients w) );
      ]
  in
  let traced =
    match probes with
    | Some p ->
      let chan c =
        per_req
          (counter_sum "bft_net_messages_total" ~where:(fun l -> label "channel" l = Some c))
      in
      let crypto op =
        per_req (counter_sum "bft_crypto_ops_total" ~where:(fun l -> label "op" l = Some op))
      in
      let summary = Bftspan.Analyze.summarize (Bftspan.Tracer.to_array ()) in
      let stage tag =
        match
          List.find_opt
            (fun (r : Bftspan.Analyze.stage_row) -> r.Bftspan.Analyze.tag = tag)
            summary.Bftspan.Analyze.stages
        with
        | Some r -> (r.Bftspan.Analyze.share, r.Bftspan.Analyze.p50_ms)
        | None -> (0.0, 0.0)
      in
      let ordering =
        hist "bft_ordering_latency_seconds" ~where:(fun l ->
            label "node" l = Some "1" && label "instance" l = Some "0")
      in
      [
        ("sim.queue_peak", float_of_int p.queue_peak);
        ("net.client_node_msgs_per_req", chan "client-node");
        ("net.node_node_msgs_per_req", chan "node-node");
        ("net.node_client_msgs_per_req", chan "node-client");
        ("crypto.sig_verify_per_req", crypto "sig_verify");
        ("crypto.mac_verify_per_req", crypto "mac_verify");
        ("crypto.authenticator_per_req", crypto "authenticator");
        ("crypto.digest_per_req", crypto "digest");
        ("crypto.bytes_per_req", per_req (counter_sum "bft_crypto_bytes_total"));
        ("node.received_per_req", per_req (counter_sum "bft_requests_received_total"));
        ("node.verification_backlog_peak_ms", p.backlog_peak_ns /. 1e6);
        ( "pbft.batch_occupancy_p50",
          pctl
            (hist "bft_batch_occupancy" ~where:(fun l -> label "instance" l = Some "0"))
            50.0 );
        ("pbft.ordering_p50_ms", 1e3 *. pctl ordering 50.0);
        ("pbft.ordering_p99_ms", 1e3 *. pctl ordering 99.0);
        ("pbft.view_changes", float_of_int (counter_sum "bft_view_changes_total"));
        ("flow.inflight_peak", float_of_int p.inflight_peak);
        ("client.pending_peak", float_of_int p.pending_peak);
        ("stage.share_sum", summary.Bftspan.Analyze.share_sum);
      ]
      @ List.concat_map
          (fun tag ->
            let share, p50 = stage tag in
            let name = Bftspan.Tag.name tag in
            [ ("stage." ^ name ^ ".share", share); ("stage." ^ name ^ ".p50_ms", p50) ])
          stage_tags
    | None -> []
  in
  Bftspan.Tracer.reset ();
  let committed = Rbft.Node.executed_count node1 in
  let digest = Bftcrypto.Sha256.to_hex (Rbft.Node.execution_digest node1) in
  let unserved = settle cluster in
  Option.iter Bftaudit.Auditor.detach auditor;
  let violations = match auditor with Some a -> Bftaudit.Auditor.violations a | None -> [] in
  let audit =
    match auditor with
    | Some a ->
      [
        ("audit.violations", float_of_int (List.length violations));
        ("audit.events_checked", float_of_int (Bftaudit.Auditor.events_checked a));
      ]
    | None -> []
  in
  let failures =
    List.filter_map
      (fun (ok, msg) -> if ok then None else Some msg)
      [
        (committed > 0, "no request was executed");
        (agreement cluster ~faulty, "correct nodes with equal executed counts disagree");
        (violations = [], "safety auditor reported violations");
      ]
  in
  {
    values = plain @ gc @ traced @ audit @ [ ("client.unserved", float_of_int unserved) ];
    committed;
    digest;
    failures;
    latency;
  }
