(* Compare the four robust BFT protocols in the fault-free case: a
   miniature of the paper's Figure 7 at one load point per protocol.

   Run with: dune exec examples/compare_protocols.exe *)

open Dessim
open Bftharness

let duration = Time.of_sec_f 1.5
let warm = Time.ms 400

(* Offer [rate] per client for [duration]; report the executed
   throughput after [warm] and the mean of the per-client mean
   latencies (ms). *)
let measure (type c) (module S : Pbftcore.Cluster_core.STACK with type Cluster.t = c)
    ~rate (cluster : c) =
  let clients = S.Cluster.clients cluster in
  Array.iter (fun c -> S.Client.set_rate c rate) clients;
  S.Cluster.run_for cluster duration;
  let s = Bftmetrics.Stats.create () in
  Array.iter
    (fun c ->
      let h = S.Client.latencies c in
      if Bftmetrics.Hist.count h > 0 then Bftmetrics.Stats.add s (Bftmetrics.Hist.mean h))
    clients;
  (S.Cluster.throughput_between cluster warm duration, 1e3 *. Bftmetrics.Stats.mean s)

let run_one proto =
  let payload_size = 8 and clients = 20 in
  let rate = 0.9 *. Calibrate.peak_rate proto ~size:payload_size /. float_of_int clients in
  let probe = Bftmetrics.Probe.create () in
  match proto with
  | Flavour.Rbft | Flavour.Rbft_udp | Flavour.Rbft_concurrent ->
    measure (module Rbft) ~rate (Flavour.rbft_cluster ~probe ~clients ~payload_size ~f:1 proto)
  | Flavour.Aardvark ->
    measure (module Aardvark) ~rate
      (Aardvark.Cluster.create ~probe ~clients ~payload_size
         (Aardvark.Node.default_config ~f:1))
  | Flavour.Spinning ->
    measure (module Spinning) ~rate
      (Spinning.Cluster.create ~probe ~clients ~payload_size
         (Spinning.Node.default_config ~f:1))
  | Flavour.Prime ->
    measure (module Prime) ~rate
      (Prime.Cluster.create ~probe ~clients ~payload_size
         { (Prime.Node.default_config ~f:1) with Prime.Node.exec_cost = Time.us 1 })

let () =
  Printf.printf "== Fault-free comparison, 8B requests at 90%% of peak (f = 1) ==\n\n";
  Printf.printf "  %-10s %18s %14s\n" "protocol" "throughput(kreq/s)" "latency(ms)";
  List.iter
    (fun proto ->
      let tput, lat = run_one proto in
      Printf.printf "  %-10s %18.1f %14.2f\n%!" (Flavour.name proto) (tput /. 1e3) lat)
    Flavour.[ Spinning; Rbft; Rbft_udp; Aardvark; Prime ];
  Printf.printf
    "\npaper (Fig 7a): Spinning fastest, then RBFT ~= Aardvark, Prime slowest\n\
     with an order-of-magnitude latency penalty for Prime.\n"
