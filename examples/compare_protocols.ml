(* Compare the four robust BFT protocols in the fault-free case: a
   miniature of the paper's Figure 7 at one load point per protocol.

   Run with: dune exec examples/compare_protocols.exe *)

open Dessim
open Bftharness

let measure_latency hists =
  let s = Bftmetrics.Stats.create () in
  List.iter
    (fun h -> if Bftmetrics.Hist.count h > 0 then Bftmetrics.Stats.add s (Bftmetrics.Hist.mean h))
    hists;
  1e3 *. Bftmetrics.Stats.mean s

let run_one proto =
  let payload = 8 in
  let offered = 0.9 *. Calibrate.peak_rate proto ~size:payload in
  let clients = 20 in
  let rate = offered /. float_of_int clients in
  let duration = Time.of_sec_f 1.5 in
  let warm = Time.ms 400 in
  match proto with
  | Calibrate.Rbft | Calibrate.Rbft_udp | Calibrate.Rbft_concurrent ->
    let transport =
      match proto with Calibrate.Rbft_udp -> Bftnet.Network.Udp | _ -> Bftnet.Network.Tcp
    in
    let cluster =
      Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~transport ~clients ~payload_size:payload (Rbft.Params.default ~f:1)
    in
    Array.iter (fun c -> Rbft.Client.set_rate c rate) (Rbft.Cluster.clients cluster);
    Rbft.Cluster.run_for cluster duration;
    let tput = Rbft.Cluster.throughput_between cluster warm duration in
    let lat =
      measure_latency
        (Array.to_list (Array.map Rbft.Client.latencies (Rbft.Cluster.clients cluster)))
    in
    (tput, lat)
  | Calibrate.Aardvark ->
    let cluster =
      Aardvark.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients ~payload_size:payload (Aardvark.Node.default_config ~f:1)
    in
    Array.iter (fun c -> Aardvark.Client.set_rate c rate) (Aardvark.Cluster.clients cluster);
    Aardvark.Cluster.run_for cluster duration;
    let tput = Aardvark.Cluster.throughput_between cluster warm duration in
    let lat =
      measure_latency
        (Array.to_list (Array.map Aardvark.Client.latencies (Aardvark.Cluster.clients cluster)))
    in
    (tput, lat)
  | Calibrate.Spinning ->
    let cluster =
      Spinning.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients ~payload_size:payload (Spinning.Node.default_config ~f:1)
    in
    Array.iter (fun c -> Spinning.Client.set_rate c rate) (Spinning.Cluster.clients cluster);
    Spinning.Cluster.run_for cluster duration;
    let tput = Spinning.Cluster.throughput_between cluster warm duration in
    let lat =
      measure_latency
        (Array.to_list (Array.map Spinning.Client.latencies (Spinning.Cluster.clients cluster)))
    in
    (tput, lat)
  | Calibrate.Prime ->
    let cfg = { (Prime.Node.default_config ~f:1) with Prime.Node.exec_cost = Time.us 1 } in
    let cluster = Prime.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients ~payload_size:payload cfg in
    Array.iter (fun c -> Prime.Client.set_rate c rate) (Prime.Cluster.clients cluster);
    Prime.Cluster.run_for cluster duration;
    let tput = Prime.Cluster.throughput_between cluster warm duration in
    let lat =
      measure_latency
        (Array.to_list (Array.map Prime.Client.latencies (Prime.Cluster.clients cluster)))
    in
    (tput, lat)

let () =
  Printf.printf "== Fault-free comparison, 8B requests at 90%% of peak (f = 1) ==\n\n";
  Printf.printf "  %-10s %18s %14s\n" "protocol" "throughput(kreq/s)" "latency(ms)";
  List.iter
    (fun proto ->
      let tput, lat = run_one proto in
      Printf.printf "  %-10s %18.1f %14.2f\n%!" (Calibrate.name proto) (tput /. 1e3) lat)
    [
      Calibrate.Spinning;
      Calibrate.Rbft;
      Calibrate.Rbft_udp;
      Calibrate.Aardvark;
      Calibrate.Prime;
    ];
  Printf.printf
    "\npaper (Fig 7a): Spinning fastest, then RBFT ~= Aardvark, Prime slowest\n\
     with an order-of-magnitude latency penalty for Prime.\n"
