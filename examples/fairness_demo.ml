(* Fairness demo (the paper's Figure 12): an unfair master primary
   delays one client's requests. The latency monitoring (Λ = 1.5 ms)
   catches the moment a single request crosses the threshold, the
   nodes vote a protocol instance change, and fairness returns.

   Run with: dune exec examples/fairness_demo.exe *)

open Dessim

let () =
  Printf.printf "== Unfair-primary demo (Fig 12): 2 clients, 4kB requests, f = 1 ==\n\n";
  let params =
    {
      (Rbft.Params.default ~f:1) with
      Rbft.Params.lambda = Time.of_us_f 1500.0;
      batch_delay = Time.of_us_f 200.0;
      delta = 0.5 (* keep the throughput check out of the way, as in the paper *);
    }
  in
  let cluster = Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients:2 ~payload_size:4096 params in

  (* Sample every ordering latency observed by (correct) node 1. *)
  let count = ref 0 in
  let samples = ref [] in
  Rbft.Node.set_latency_probe (Rbft.Cluster.node cluster 1)
    (fun ~instance ~client latency ->
      if instance = 0 then begin
        incr count;
        samples := (!count, client, latency) :: !samples
      end);

  Array.iter (fun c -> Rbft.Client.set_rate c 350.0) (Rbft.Cluster.clients cluster);

  (* The unfair primary: fair for 500 requests, then holds client 0's
     requests 0.5 ms, then 1 ms — the same escalation as the paper. *)
  let replica = Rbft.Node.replica (Rbft.Cluster.node cluster 0) ~instance:0 in
  (Pbftcore.Replica.adversary replica).Pbftcore.Replica.client_hold <-
    (fun id ->
      if id.Pbftcore.Types.client <> 0 then Time.zero
      else begin
        let ordered = Pbftcore.Replica.ordered_count replica in
        if ordered < 500 then Time.zero
        else if ordered < 1000 then Time.of_us_f 500.0
        else Time.of_us_f 1000.0
      end);
  Rbft.Cluster.run_for cluster (Time.of_sec_f 3.0);

  (* Render the latency series, bucketed by 100 requests. *)
  let samples = List.rev !samples in
  Printf.printf "%8s  %-22s  %-22s\n" "request" "client 0 (attacked)" "client 1";
  let bucket lo hi client =
    let s = Bftmetrics.Stats.create () in
    List.iter
      (fun (i, c, lat) ->
        if i >= lo && i < hi && c = client then Bftmetrics.Stats.add s (Time.to_ms_f lat))
      samples;
    s
  in
  let bar ms = String.make (Stdlib.min 40 (int_of_float (ms *. 12.0))) '#' in
  let rec render lo =
    if lo < 1400 then begin
      let s0 = bucket lo (lo + 100) 0 and s1 = bucket lo (lo + 100) 1 in
      if Bftmetrics.Stats.count s0 + Bftmetrics.Stats.count s1 > 0 then begin
        let m0 = Bftmetrics.Stats.mean s0 and m1 = Bftmetrics.Stats.mean s1 in
        Printf.printf "%8d  %5.2fms %-14s  %5.2fms %-14s\n" lo m0 (bar m0) m1 (bar m1);
        render (lo + 100)
      end
    end
  in
  render 0;
  let changes = Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1) in
  Printf.printf
    "\nprotocol instance changes: %d (the request that crossed Lambda = 1.5 ms \
     evicted the unfair primary)\n"
    changes;
  Printf.printf "master primary is now node %d\n"
    (Pbftcore.Replica.current_primary
       (Rbft.Node.replica (Rbft.Cluster.node cluster 1) ~instance:0));
  if changes < 1 then exit 1
