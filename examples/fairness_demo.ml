(* Fairness demo (the paper's Figure 12): an unfair master primary
   delays one client's requests. The latency monitoring (Λ = 1.5 ms)
   catches the moment a single request crosses the threshold, the
   nodes vote a protocol instance change, and fairness returns.

   Run with: dune exec examples/fairness_demo.exe *)

let () =
  Printf.printf "== Unfair-primary demo (Fig 12): 2 clients, 4kB requests, f = 1 ==\n\n";
  (* The unfair primary: fair for 500 requests, then holds client 0's
     requests 0.5 ms, then 1 ms — the same escalation as the paper. *)
  let samples, cluster = Bftharness.Experiments.unfair_primary () in

  (* Render the latency series, bucketed by 100 requests. *)
  Printf.printf "%8s  %-22s  %-22s\n" "request" "client 0 (attacked)" "client 1";
  let bucket lo hi client = Bftharness.Experiments.latencies_ms samples ~lo ~hi ~client in
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
