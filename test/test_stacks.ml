(* Tests for what the four BFT stacks share: the client core's reply
   quorum, and same-seed pins of each stack's execution ledger and
   client counters. *)

open Dessim
open Pbftcore.Types
module Core = Pbftcore.Client_core

(* ------------------------------------------------------------------ *)
(* The shared reply quorum                                            *)
(* ------------------------------------------------------------------ *)

type msg = Reply of { id : request_id; node : int; result : string }

let test_reply_quorum () =
  let engine = Engine.create ~seed:1L () in
  let net = Bftnet.Network.create engine (Bftnet.Network.default_config ~nodes:4) in
  let client = Core.create engine net ~f:1 ~id:0 ~payload_size:8 () in
  let completions = ref 0 in
  Core.listen client (fun c ~src (Reply { id; node; result }) ->
      if Core.on_reply c id ~src ~node ~result then incr completions);
  let id = { client = 0; rid = 1 } in
  ignore (Core.track client id ());
  let corrupt = ref false in
  Bftnet.Network.set_fault_hook net
    (Some
       (fun ~src:_ ~dst:_ ~size:_ ->
         { Bftnet.Network.pass_verdict with fv_corrupt = !corrupt }));
  (* [src] is the authenticated sender, [node] the id the reply claims. *)
  let reply ?(corrupted = false) ?src node result =
    corrupt := corrupted;
    let src = Option.value src ~default:node in
    Bftnet.Network.send net ~src:(Bftcrypto.Principal.node src)
      ~dst:(Bftcrypto.Principal.client 0) ~size:32 (Reply { id; node; result });
    Engine.run engine
  in
  let still_pending what =
    Alcotest.(check int) (what ^ ": not completed") 0 (Core.completed client);
    Alcotest.(check int) (what ^ ": still pending") 1 (Core.pending_count client)
  in
  reply 0 "ok";
  still_pending "one reply";
  reply 0 "ok";
  still_pending "same node twice";
  reply ~src:0 1 "ok";
  still_pending "one source claiming another node";
  reply 1 "forged";
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
   0.5 s: node 1's executed count and execution digest, and each
   client's (sent, completed). A simulation is exact for a seed, so any
   drift means a stack's client, cluster or execution ledger changed
   behaviour. The open-loop clients draw the same Poisson streams on
   every stack, so they send the same requests everywhere. *)
let pin (type c) (module S : Pbftcore.Cluster_core.STACK with type Cluster.t = c)
    ?(rate = 2000.0) (cluster : c) ~executed ~digest ~clients () =
  Array.iter (fun c -> S.Client.set_rate c rate) (S.Cluster.clients cluster);
  S.Cluster.run_for cluster (Time.ms 500);
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
      ] );
  ]
