(* Every metric rbftbench prints, with its unit. BENCHMARK.json declares
   the same names (a test keeps the two equal) and adds directions and
   bounds. *)

(* End-to-end metrics, from plain (untraced) runs. Simulated time:
   throughput, latencies, completed share. Host time: run_s, setup_s,
   peak_heap_mb. *)
let end_to_end =
  [
    ("throughput_req_s", "req/s");
    ("latency_p50_ms", "ms");
    ("latency_p99_ms", "ms");
    ("completed_share", "ratio");
    ("run_s", "s");
    ("setup_s", "s");
    ("peak_heap_mb", "MB");
  ]

(* Per-layer metrics, printed by the traced pass. Layers are named after
   the library that does the work. *)
let per_layer =
  [
    (* lib/sim *)
    ("sim.events_per_req", "events/req");
    ("sim.events_per_host_s", "events/s");
    ("sim.queue_peak", "events");
    ("sim.engine_event_ns", "ns");
    ("sim.engine_share_est", "ratio");
    (* lib/net *)
    ("net.msgs_per_req", "msgs/req");
    ("net.bytes_per_req", "B/req");
    ("net.client_node_msgs_per_req", "msgs/req");
    ("net.node_node_msgs_per_req", "msgs/req");
    ("net.node_client_msgs_per_req", "msgs/req");
    ("net.dropped_per_req", "msgs/req");
    (* lib/crypto cost model *)
    ("crypto.sig_verify_per_req", "ops/req");
    ("crypto.mac_verify_per_req", "ops/req");
    ("crypto.authenticator_per_req", "ops/req");
    ("crypto.digest_per_req", "ops/req");
    ("crypto.bytes_per_req", "B/req");
    (* lib/core node *)
    ("node.received_per_req", "msgs/req");
    ("node.verification_backlog_peak_ms", "ms");
    ("node.instance_changes", "count");
  ]
  @ List.concat_map
      (fun tag ->
        let name = Bftspan.Tag.name tag in
        [ ("stage." ^ name ^ ".share", "ratio"); ("stage." ^ name ^ ".p50_ms", "ms") ])
      Measure.stage_tags
  @ [
      (* lib/pbft *)
      ("pbft.batch_occupancy_p50", "req/batch");
      ("pbft.ordering_p50_ms", "ms");
      ("pbft.ordering_p99_ms", "ms");
      ("pbft.view_changes", "count");
      (* lib/flow *)
      ("flow.shed_per_req", "count/req");
      ("flow.retries_per_req", "count/req");
      ("flow.busy_replies_per_req", "count/req");
      ("flow.useful_ratio", "ratio");
      ("flow.inflight_peak", "req");
      (* client / lib/workload *)
      ("client.completed", "req");
      ("client.pending_peak", "req");
      (* setup *)
      ("setup.cluster_create_s", "s");
      ("setup.load_apply_s", "s");
      ("setup.attack_s", "s");
      ("mem.setup_words_per_client", "words");
      (* OCaml runtime *)
      ("gc.minor_words_per_req", "words/req");
      ("gc.promoted_words_per_req", "words/req");
      ("gc.major_collections", "count");
      ("gc.pause_share", "ratio");
      (* instrumentation *)
      ("trace.overhead_ratio", "ratio");
      ("audit.violations", "count");
      ("audit.events_checked", "events");
    ]

(* Metrics read from the host clock or the OCaml runtime. Every other
   value a simulation records is simulated and repeats exactly for a
   given seed. *)
let host =
  [
    "run_s";
    "setup_s";
    "peak_heap_mb";
    "sim.events_per_host_s";
    "sim.engine_event_ns";
    "sim.engine_share_est";
    "setup.cluster_create_s";
    "setup.load_apply_s";
    "setup.attack_s";
    "mem.setup_words_per_client";
    "gc.minor_words_per_req";
    "gc.promoted_words_per_req";
    "gc.major_collections";
    "gc.pause_share";
    "trace.overhead_ratio";
  ]
