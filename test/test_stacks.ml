(* Tests for what the four BFT stacks share: the client core's reply
   quorum, and same-seed pins of each stack's execution ledger and
   client counters. *)

open Dessim
open Pbftcore.Types
module Core = Pbftcore.Client_core

(* ------------------------------------------------------------------ *)
(* The shared reply quorum                                            *)
(* ------------------------------------------------------------------ *)

type msg = Reply of { id : request_id; result : string }

let test_reply_quorum () =
  let engine = Engine.create ~seed:1L () in
  let net = Bftnet.Network.create engine (Bftnet.Network.default_config ~nodes:4) in
  let client = Core.create engine net ~f:1 ~id:0 ~payload_size:8 () in
  let completions = ref 0 in
  Core.listen client (fun c ~from (Reply { id; result }) ->
      if Core.on_reply c id ~from ~result then incr completions);
  let id = { client = 0; rid = 1 } in
  ignore (Core.track client id ());
  let corrupt = ref false in
  Bftnet.Network.set_fault_hook net
    (Some
       (fun ~src:_ ~dst:_ ~size:_ ->
         { Bftnet.Network.pass_verdict with fv_corrupt = !corrupt }));
  (* [src] is the authenticated sender: the only thing a reply says
     about who sent it. *)
  let reply_from ?(corrupted = false) src result =
    corrupt := corrupted;
    Bftnet.Network.send net ~src ~dst:(Bftcrypto.Principal.client 0) ~size:32
      (Reply { id; result });
    Engine.run engine
  in
  let reply ?corrupted node result =
    reply_from ?corrupted (Bftcrypto.Principal.node node) result
  in
  let still_pending what =
    Alcotest.(check int) (what ^ ": not completed") 0 (Core.completed client);
    Alcotest.(check int) (what ^ ": still pending") 1 (Core.pending_count client)
  in
  reply 0 "ok";
  still_pending "one reply";
  reply 0 "ok";
  still_pending "one source, two REPLYs";
  reply_from (Bftcrypto.Principal.client 7) "ok";
  still_pending "a client's reply";
  reply 1 "wrong";
  still_pending "mismatching result";
  reply ~corrupted:true 2 "ok";
  still_pending "corrupted delivery";
  reply 3 "ok";
  Alcotest.(check int) "f+1 matching results complete" 1 (Core.completed client);
  Alcotest.(check int) "completed exactly once" 1 !completions;
  Alcotest.(check int) "left the pending table" 0 (Core.pending_count client);
  Alcotest.(check int) "latency recorded" 1
    (Bftmetrics.Hist.count (Core.latencies client))

(* ------------------------------------------------------------------ *)
(* Same-seed pins                                                     *)
(* ------------------------------------------------------------------ *)

(* f = 1, seed 42, three clients at [rate] (default 2000) req/s each for
   [duration] (default 0.5 s), after [attack] arms any faults: node 1's executed count and execution digest, and each
   client's (sent, completed). A simulation is exact for a seed, so any
   drift means a stack's client, cluster or execution ledger changed
   behaviour. The open-loop clients draw the same Poisson streams on
   every stack, so they send the same requests everywhere. *)
let pin (type c) (module S : Pbftcore.Cluster_core.STACK with type Cluster.t = c)
    ?(rate = 2000.0) ?(duration = Time.ms 500) ?(attack = fun (_ : c) -> ()) (cluster : c) ~executed ~digest
    ~clients () =
  Array.iter (fun c -> S.Client.set_rate c rate) (S.Cluster.clients cluster);
  attack cluster;
  S.Cluster.run_for cluster duration;
  let ledger = S.Node.ledger (S.Cluster.node cluster 1) in
  Alcotest.(check int) "executed at node 1" executed (Pbftcore.Ledger.count ledger);
  Alcotest.(check string) "execution digest" digest
    (Bftcrypto.Sha256.to_hex (Pbftcore.Ledger.digest ledger));
  Alcotest.(check (list (pair int int))) "clients (sent, completed)" clients
    (Array.to_list
       (Array.map
          (fun c -> (S.Client.sent c, S.Client.completed c))
          (S.Cluster.clients cluster)))

let open_loop = [ (1013, 1010); (970, 965); (1042, 1037) ]

let test_pin_rbft () =
  pin (module Rbft)
    (Rbft.Cluster.create ~seed:42L ~clients:3 (Rbft.Params.default ~f:1))
    ~executed:3012
    ~digest:"4dc5433751578433dd10db6e675fd8da21257be1e122e8c60fd7adb68bd154d3"
    ~clients:open_loop ()

(* The configuration the benchmark measures: admission gate and
   adaptive batching on, driven past the ~30 kreq/s peak so the gate
   sheds and the clients back off on BUSY. *)
let test_pin_rbft_flow () =
  let cluster =
    Rbft.Cluster.create ~seed:42L ~clients:3
      { (Rbft.Params.default ~f:1) with
        Rbft.Params.admission_budget = 128;
        adaptive_batching = true }
  in
  pin (module Rbft) ~rate:12000.0 cluster ~executed:17420
    ~digest:"539d420f83b8fc79d51b92f4f475068cff7308fcb806419bf259eaa2e636dd70"
    ~clients:[ (6125, 5895); (5927, 5721); (6010, 5796) ]
    ();
  Alcotest.(check int) "shed at node 1" 11187
    (Rbft.Node.admission_shed (Rbft.Cluster.node cluster 1));
  Alcotest.(check int) "BUSY replies" 44405
    (Array.fold_left
       (fun acc c -> acc + Rbft.Client.busy_replies c)
       0 (Rbft.Cluster.clients cluster))

(* Concurrent ordering: PROPAGATE batching, no-op heartbeats and the
   merge-stall watch all run. *)
let test_pin_rbft_concurrent () =
  pin (module Rbft)
    (Rbft.Cluster.create ~seed:42L ~clients:3
       { (Rbft.Params.default ~f:1) with Rbft.Params.ordering = Rbft.Params.Concurrent })
    ~executed:2845
    ~digest:"6e4594a698f7cb130fd80c1bbbbc1aec5ba14b0471ea97470178d976ce4c0ad2"
    ~clients:[ (1013, 936); (970, 872); (1042, 1037) ]
    ()

let test_pin_aardvark () =
  pin (module Aardvark)
    (Aardvark.Cluster.create ~seed:42L ~clients:3 (Aardvark.Node.default_config ~f:1))
    ~executed:3012
    ~digest:"4dc5433751578433dd10db6e675fd8da21257be1e122e8c60fd7adb68bd154d3"
    ~clients:open_loop ()

let test_pin_spinning () =
  pin (module Spinning)
    (Spinning.Cluster.create ~seed:42L ~clients:3 (Spinning.Node.default_config ~f:1))
    ~executed:3018
    ~digest:"116a8ea662486f93a990439899a8f32894f2ebb52427e313d80aa7e3a2a74757"
    ~clients:[ (1013, 1012); (970, 967); (1042, 1039) ]
    ()

let test_pin_prime () =
  pin (module Prime)
    (Prime.Cluster.create ~seed:42L ~clients:3 (Prime.Node.default_config ~f:1))
    ~executed:2925
    ~digest:"a2004c53afc0613a87754c81c8f420efa2a7e8bd076cc507b6cf648dcdd88e92"
    ~clients:[ (1013, 986); (970, 926); (1042, 1013) ]
    ()

(* Each baseline under the attack its experiment runs (Figures 1-3),
   with the experiment's configuration. These pin the constants that
   only matter under attack: Prime's heavy execution cost and monitor
   allowance, Aardvark's simulation policy, Spinning's accusation
   timeout. *)

(* Figure 1: client 0 floods heavy (1 ms) requests at 300 req/s and
   the primary, node 0, stretches its ordering period to the monitored
   allowance. *)
let test_pin_prime_attack () =
  let attack cluster =
    let heavy = Prime.Cluster.client cluster 0 in
    (Prime.Client.behaviour heavy).Prime.Client.heavy <- true;
    Prime.Client.set_rate heavy 300.0;
    (Prime.Node.faults (Prime.Cluster.node cluster 0)).Prime.Node.delay_to_limit <- true
  in
  pin (module Prime) ~attack
    (Prime.Cluster.create ~seed:42L ~clients:3 (Prime.Node.default_config ~f:1))
    ~executed:1024
    ~digest:"fa215162e2cb621a8ae5f1a57e19bb92f188e8f8bfde98f9fa02e1233c63f09e"
    ~clients:[ (161, 82); (970, 451); (1042, 491) ]
    ()

(* Figure 2: the primary, node 0, orders just above the ratcheting
   throughput requirement. The run lasts until 0.1 s after the view
   change that finally evicts it (~2.8 s: the 1.2 s grace, then the
   ratchet), so it ends inside the new view's post-view-change quiet
   period. *)
let test_pin_aardvark_attack () =
  let attack cluster =
    (Aardvark.Node.faults (Aardvark.Cluster.node cluster 0)).Aardvark.Node.track_required <-
      true
  in
  pin (module Aardvark) ~duration:(Time.ms 2900) ~attack
    (Aardvark.Cluster.create ~seed:42L ~clients:3 (Aardvark.Node.simulation_config ~f:1))
    ~executed:16878
    ~digest:"1fd3009d4259172bb3a564682e0bd1ace035280a5032d8312dec57d0668f1ae3"
    ~clients:[ (5925, 5722); (5754, 5534); (5802, 5622) ]
    ()

(* Figure 3: node 3 delays each batch it proposes by 0.95 s_timeout. *)
let test_pin_spinning_attack () =
  let attack cluster =
    (Spinning.Node.faults (Spinning.Cluster.node cluster 3)).Spinning.Node.delay_fraction <-
      0.95
  in
  pin (module Spinning) ~attack
    (Spinning.Cluster.create ~seed:42L ~clients:3 (Spinning.Node.default_config ~f:1))
    ~executed:834
    ~digest:"c5ca5a8fa5faeefaac488464d18c346983ca856660220bf13c481f3d72ea361e"
    ~clients:[ (1013, 287); (970, 290); (1042, 257) ]
    ()

let suites =
  [
    ( "stacks.client-core",
      [ Alcotest.test_case "reply quorum" `Quick test_reply_quorum ] );
    ( "stacks.pin",
      [
        Alcotest.test_case "rbft same-seed ledger" `Quick test_pin_rbft;
        Alcotest.test_case "rbft flow-controlled same-seed ledger" `Quick
          test_pin_rbft_flow;
        Alcotest.test_case "rbft concurrent same-seed ledger" `Quick
          test_pin_rbft_concurrent;
        Alcotest.test_case "aardvark same-seed ledger" `Quick test_pin_aardvark;
        Alcotest.test_case "spinning same-seed ledger" `Quick test_pin_spinning;
        Alcotest.test_case "prime same-seed ledger" `Quick test_pin_prime;
        Alcotest.test_case "prime under the Fig 1 attack" `Quick test_pin_prime_attack;
        Alcotest.test_case "aardvark under the Fig 2 attack" `Quick
          test_pin_aardvark_attack;
        Alcotest.test_case "spinning under the Fig 3 attack" `Quick
          test_pin_spinning_attack;
      ] );
  ]
