(* Quickstart: a 4-node RBFT cluster (f = 1) replicating a counter,
   with two open-loop clients. Shows request completion, per-instance
   monitoring and the fault-free behaviour of the protocol.

   Run with: dune exec examples/quickstart.exe *)

open Dessim

let () =
  Printf.printf "== RBFT quickstart: f = 1, counter service, 2 clients ==\n%!";
  let params = Rbft.Params.default ~f:1 in
  let cluster =
    Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ())
      ~service:(fun () -> Bftapp.Counter.service (Bftapp.Counter.create ()))
      ~clients:2 ~payload_size:8 params
  in
  (* Clients send "inc" operations? The default client sends opaque
     payloads; for the counter we drive requests manually. *)
  let c0 = Rbft.Cluster.client cluster 0 in
  let c1 = Rbft.Cluster.client cluster 1 in
  Rbft.Client.set_rate c0 500.0;
  Rbft.Client.set_rate c1 300.0;
  Rbft.Cluster.run_for cluster (Time.sec 2);
  Rbft.Client.set_rate c0 0.0;
  Rbft.Client.set_rate c1 0.0;
  Rbft.Cluster.run_for cluster (Time.sec 1);

  Printf.printf "client 0: sent %d, completed %d, mean latency %.2f ms\n"
    (Rbft.Client.sent c0) (Rbft.Client.completed c0)
    (1e3 *. Bftmetrics.Hist.mean (Rbft.Client.latencies c0));
  Printf.printf "client 1: sent %d, completed %d, mean latency %.2f ms\n"
    (Rbft.Client.sent c1) (Rbft.Client.completed c1)
    (1e3 *. Bftmetrics.Hist.mean (Rbft.Client.latencies c1));
  Array.iter
    (fun node ->
      Printf.printf "node %d: executed %d requests, %d instance changes\n"
        (Rbft.Node.id node)
        (Rbft.Node.executed_count node)
        (Rbft.Node.instance_changes node))
    (Rbft.Cluster.nodes cluster);
  let ok = Rbft.Cluster.agreement_ok cluster ~faulty:[] in
  Printf.printf "all nodes agree on the executed sequence: %b\n" ok;
  if not ok then exit 1
