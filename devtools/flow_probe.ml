(* flow_probe: quick saturation probe for the flow-control layer.

   Runs the same saturated fault-free configuration as the perf report
   at 8 B with a chosen admission budget / adaptive-batching setting
   and prints throughput plus the admission and client retry counters,
   so budget tuning doesn't require a full bench regeneration. *)

open Dessim

let () =
  let budget = ref 96 in
  let adaptive = ref true in
  let retry_base_ms = ref 1.0 in
  let rate_mult = ref 1.05 in
  let payload = ref 8 in
  let attack = ref "" in
  let secs = ref 1.0 in
  let rec parse = function
    | [] -> ()
    | "--budget" :: b :: rest ->
      budget := int_of_string b;
      parse rest
    | "--no-adaptive" :: rest ->
      adaptive := false;
      parse rest
    | "--retry-base-ms" :: b :: rest ->
      retry_base_ms := float_of_string b;
      parse rest
    | "--rate-mult" :: m :: rest ->
      rate_mult := float_of_string m;
      parse rest
    | "--secs" :: s :: rest ->
      secs := float_of_string s;
      parse rest
    | "--payload" :: b :: rest ->
      payload := int_of_string b;
      parse rest
    | "--attack" :: a :: rest ->
      attack := a;
      parse rest
    | a :: _ ->
      Printf.eprintf "unknown arg %S\n" a;
      exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  let f = 1 in
  let peak = Bftharness.Calibrate.saturating_rate ~f Bftharness.Calibrate.Rbft ~size:!payload in
  let rate = peak /. 1.05 *. !rate_mult in
  Printf.printf "peak*1.05=%.0f req/s, offering %.0f req/s\n%!" peak rate;
  let params =
    { (Rbft.Params.default ~f) with
      Rbft.Params.admission_budget = !budget;
      busy_retry_base = Time.of_sec_f (!retry_base_ms /. 1e3);
      adaptive_batching = !adaptive }
  in
  let clients = 20 in
  let probe = Bftmetrics.Probe.create () in
  Bftmetrics.Probe.set_metrics probe true;
  Bftmetrics.Probe.enable_spans ~sample:8 probe;
  let drops = Hashtbl.create 16 in
  let audit_tok =
    Bftmetrics.Probe.subscribe probe (fun (e : Bftmetrics.Event.t) ->
        match e.kind with
        | Bftmetrics.Event.Nic_closed { peer; _ } ->
          Printf.printf "[%s] node %d closed NIC to %d\n"
            (Time.to_string e.time) e.node peer
        | Bftmetrics.Event.View_entered { view; primary } ->
          Printf.printf "[%s] node %d i%d entered view %d (primary %d)\n"
            (Time.to_string e.time) e.node e.instance view primary
        | Bftmetrics.Event.Instance_changed { cpi; _ } ->
          Printf.printf "[%s] node %d instance-change cpi=%d\n"
            (Time.to_string e.time) e.node cpi
        | Bftmetrics.Event.Net_dropped { src; reason } ->
          let key = (e.node, src, reason) in
          Hashtbl.replace drops key
            (1 + Option.value ~default:0 (Hashtbl.find_opt drops key))
        | _ -> ())
  in
  let cluster = Rbft.Cluster.create ~probe ~clients ~payload_size:!payload params in
  (match !attack with
   | "" -> ()
   | "worst1" -> Rbft.Attacks.worst_attack_1 cluster
   | "worst2" -> Rbft.Attacks.worst_attack_2 cluster
   | a ->
     Printf.eprintf "unknown attack %S\n" a;
     exit 2);
  let engine = Rbft.Cluster.engine cluster in
  ignore engine;
  Array.iter
    (fun c -> Rbft.Client.set_rate c (rate /. float_of_int clients))
    (Rbft.Cluster.clients cluster);
  let total = Time.of_sec_f !secs in
  Rbft.Cluster.run_for cluster (Time.add total (Time.ms 200));
  let node1 = Rbft.Cluster.node cluster 1 in
  let counter = Rbft.Node.executed_counter node1 in
  let tput = Bftmetrics.Throughput.rate_between counter (Time.ms 200) total in
  let sent, completed, busy, retries =
    Array.fold_left
      (fun (s, c, b, r) cl ->
        ( s + Rbft.Client.sent cl,
          c + Rbft.Client.completed cl,
          b + Rbft.Client.busy_replies cl,
          r + Rbft.Client.retries cl ))
      (0, 0, 0, 0) (Rbft.Cluster.clients cluster)
  in
  Printf.printf "throughput %.0f req/s\n" tput;
  Printf.printf "clients: sent %d completed %d busy %d retries %d\n" sent
    completed busy retries;
  for i = 0 to (3 * f) + 1 - 1 do
    let node = Rbft.Cluster.node cluster i in
    Printf.printf "node %d: inflight %d shed %d executed %d\n" i
      (Rbft.Node.admission_inflight node)
      (Rbft.Node.admission_shed node)
      (Rbft.Node.executed_count node);
    Printf.printf "  r0: %s\n"
      (Pbftcore.Replica.debug_dump (Rbft.Node.replica node ~instance:0))
  done;
  List.iter
    (fun s ->
      match s.Bftmetrics.Registry.s_value with
      | Bftmetrics.Registry.Counter_v v
        when s.Bftmetrics.Registry.s_name = "bft_net_dropped_total" && v > 0 ->
        Printf.printf "  %s %s = %d\n" s.Bftmetrics.Registry.s_name
          (String.concat ","
             (List.map snd s.Bftmetrics.Registry.s_labels))
          v
      | Bftmetrics.Registry.Gauge_v v
        when (s.Bftmetrics.Registry.s_name = "bft_thread_backlog"
              || s.Bftmetrics.Registry.s_name = "bft_thread_depth")
             && v > 0.0 ->
        Printf.printf "  %s %s = %g\n" s.Bftmetrics.Registry.s_name
          (String.concat ","
             (List.map snd s.Bftmetrics.Registry.s_labels))
          v
      | _ -> ())
    (Bftmetrics.Registry.snapshot (Bftmetrics.Probe.registry probe));
  audit_tok ();
  Hashtbl.iter
    (fun (node, src, reason) c ->
      Printf.printf "  drops at node %d from %s (%s): %d\n" node src reason c)
    drops;
  Bftmetrics.Probe.disable_spans probe;
  let summary = Bftspan.Analyze.summarize (Bftmetrics.Probe.span_array probe) in
  Printf.printf "breakdown: committed %d e2e p50 %.3fms\n"
    summary.Bftspan.Analyze.committed summary.Bftspan.Analyze.total_p50_ms;
  List.iter
    (fun (r : Bftspan.Analyze.stage_row) ->
      if r.Bftspan.Analyze.share > 0.005 then
        Printf.printf "  %-14s share %.4f p50 %.3fms\n"
          (Bftspan.Tag.name r.Bftspan.Analyze.tag)
          r.Bftspan.Analyze.share r.Bftspan.Analyze.p50_ms)
    summary.Bftspan.Analyze.stages
