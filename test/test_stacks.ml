(* Tests for what the four BFT stacks share: the client core's reply
   quorum, the prepare/commit rule of a slot, re-replies from the node
   shell's reply cache, and same-seed pins of each stack's execution
   ledger and client counters. *)

open Dessim
open Pbftcore.Types
module Core = Pbftcore.Client_core

(* ------------------------------------------------------------------ *)
(* The shared reply quorum                                            *)
(* ------------------------------------------------------------------ *)

type msg = Reply of { id : request_id; result : string }

let test_reply_quorum () =
  let p = Bftmetrics.Probe.create () in
  let engine = Engine.create ~seed:1L () in
  let net = Bftnet.Network.create ~probe:p engine (Bftnet.Network.default_config ~nodes:4) in
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
(* The shared prepare/commit rule                                     *)
(* ------------------------------------------------------------------ *)

(* One f = 1 replica of each stack, node 2, fed slot 1's votes by hand.
   Steps name roles, not ids: [Proposer] is the slot's proposer (the
   PBFT primary, Spinning's rotating proposer, Prime's primary) and
   [Backup k] the k-th of the two other replicas. A vote endorses the
   proposed batch or another digest. *)
type role = Proposer | Backup of int
type endorses = Batch | Other
type step = Pre_prepare | Prepare of role * endorses | Commit of role * endorses

type slot_case = {
  name : string;
  steps : step list;
  prepared : bool;  (** node 2 sends its COMMIT *)
  delivered : bool;
}

let slot_cases =
  [
    (* A Byzantine proposer with two early COMMITs for another batch:
       its own PREPARE must neither prepare nor let those COMMITs
       complete the slot. *)
    {
      name = "early commits for another digest, then the proposer's PREPARE";
      steps =
        [ Commit (Backup 0, Other); Commit (Backup 1, Other); Pre_prepare; Prepare (Proposer, Batch) ];
      prepared = false;
      delivered = false;
    };
    {
      name = "the proposer's PREPARE alone";
      steps = [ Pre_prepare; Prepare (Proposer, Batch) ];
      prepared = false;
      delivered = false;
    };
    (* Prepared by a backup, but the COMMITs held are for another
       digest: only node 2's own COMMIT matches. *)
    {
      name = "early commits for another digest, then a backup's PREPARE";
      steps =
        [ Commit (Backup 0, Other); Commit (Backup 1, Other); Pre_prepare; Prepare (Backup 0, Batch) ];
      prepared = true;
      delivered = false;
    };
    {
      name = "a backup's PREPARE and two backups' COMMITs";
      steps =
        [ Pre_prepare; Prepare (Backup 0, Batch); Commit (Backup 0, Batch); Commit (Backup 1, Batch) ];
      prepared = true;
      delivered = true;
    };
  ]

let other_digest = Bftcrypto.Sha256.digest_string "another batch"

(* A stack under test: node 2 with one request known, a way to feed it
   a step, and its COMMIT and delivery counts. *)
type slot_rig = { feed : step -> unit; commits_sent : unit -> int; delivered : unit -> int }

let request = desc_of_op ~client:0 ~rid:1 "op"

(* PBFT (RBFT's instances, Aardvark): view 0, primary 0. *)
let pbft_rig () =
  let module R = Pbftcore.Replica in
  let module M = Pbftcore.Messages in
  let commits = ref 0 and delivered = ref 0 in
  let r =
    R.create ~probe:(Bftmetrics.Probe.create ()) (Engine.create ())
      (R.default_config ~n:4 ~f:1 ~replica_id:2)
      {
        R.broadcast = (function M.Commit _ -> incr commits | _ -> ());
        deliver = (fun _ descs -> delivered := !delivered + List.length descs);
        on_view_change = (fun _ -> ());
      }
  in
  R.submit r request;
  let id = function Proposer -> 0 | Backup k -> [| 1; 3 |].(k) in
  let digest = function Batch -> M.batch_digest [ request ] | Other -> other_digest in
  let feed = function
    | Pre_prepare -> R.receive r ~from:0 (M.Pre_prepare { M.view = 0; seq = 1; descs = [ request ] })
    | Prepare (who, d) -> R.receive r ~from:(id who) (M.Prepare { view = 0; seq = 1; digest = digest d })
    | Commit (who, d) -> R.receive r ~from:(id who) (M.Commit { view = 0; seq = 1; digest = digest d })
  in
  { feed; commits_sent = (fun () -> !commits); delivered = (fun () -> !delivered) }

(* Spinning: slot 1, attempt 0, is proposed by node 1. *)
let spinning_rig () =
  let module R = Spinning.Replica in
  let commits = ref 0 in
  let r =
    R.create ~probe:(Bftmetrics.Probe.create ()) (Engine.create ())
      { R.n = 4; f = 1; replica_id = 2 }
      {
        R.broadcast = (function R.Commit { seq = 1; _ } -> incr commits | _ -> ());
        deliver = (fun _ _ -> ());
      }
  in
  R.submit r request;
  let id = function Proposer -> 1 | Backup k -> [| 0; 3 |].(k) in
  let digest = function
    | Batch -> Pbftcore.Messages.batch_digest [ request ]
    | Other -> other_digest
  in
  let feed = function
    | Pre_prepare -> R.receive r ~from:1 (R.Pre_prepare { seq = 1; descs = [ request ]; attempt = 0 })
    | Prepare (who, d) -> R.receive r ~from:(id who) (R.Prepare { seq = 1; digest = digest d; attempt = 0 })
    | Commit (who, d) -> R.receive r ~from:(id who) (R.Commit { seq = 1; digest = digest d; attempt = 0 })
  in
  { feed; commits_sent = (fun () -> !commits); delivered = (fun () -> R.ordered_count r) }

(* Prime: view 0, primary 0, which pre-ordered the request. Node 2 is
   not started, so it runs no timers; the other nodes only count the
   COMMITs it sends them. *)
let prime_rig () =
  let module N = Prime.Node in
  let engine = Engine.create ~seed:1L () in
  let net =
    Bftnet.Network.create ~probe:(Bftmetrics.Probe.create ()) engine
      (Bftnet.Network.default_config ~nodes:4)
  in
  let node = N.create engine net (N.default_config ~f:1) ~id:2 ~service:(Bftapp.Null_service.create ()) in
  let commits = ref 0 in
  List.iter
    (fun peer ->
      Bftnet.Network.register_node net peer (fun d ->
          match d.Bftnet.Network.payload with N.Commit _ -> incr commits | _ -> ()))
    [ 0; 1; 3 ];
  let send src m =
    Bftnet.Network.send net ~src:(Bftcrypto.Principal.node src) ~dst:(Bftcrypto.Principal.node 2)
      ~size:64 m;
    Engine.run engine
  in
  send 0 (N.Po_request { desc = request; po_seq = 1 });
  let id = function Proposer -> 0 | Backup k -> [| 1; 3 |].(k) in
  (* Prime's vector digest: view, seq and the vector. *)
  let digest = function
    | Batch -> Bftcrypto.Sha256.digest_string "0:1,1,0,0,0"
    | Other -> other_digest
  in
  let feed = function
    | Pre_prepare -> send 0 (N.Pre_prepare { view = 0; seq = 1; vector = [| 1; 0; 0; 0 |] })
    | Prepare (who, d) -> send (id who) (N.Prepare { view = 0; seq = 1; digest = digest d })
    | Commit (who, d) -> send (id who) (N.Commit { view = 0; seq = 1; digest = digest d })
  in
  { feed; commits_sent = (fun () -> !commits); delivered = (fun () -> Pbftcore.Ledger.count (N.ledger node)) }

let slot_test make (c : slot_case) () =
  let rig = make () in
  List.iter rig.feed c.steps;
  (* Prime sends its COMMIT to each of the three peers. *)
  Alcotest.(check bool) "prepared" c.prepared (rig.commits_sent () > 0);
  Alcotest.(check int) "delivered" (if c.delivered then 1 else 0) (rig.delivered ())

let slot_suite =
  List.concat_map
    (fun (stack, make) ->
      List.map
        (fun c -> Alcotest.test_case (stack ^ ": " ^ c.name) `Quick (slot_test make c))
        slot_cases)
    [ ("pbft", pbft_rig); ("spinning", spinning_rig); ("prime", prime_rig) ]

(* ------------------------------------------------------------------ *)
(* Re-replies from the shared reply cache                             *)
(* ------------------------------------------------------------------ *)

(* A f = 1 cluster of one stack serving a counter, with no clients of
   its own: the test plays client 0, sending "inc" REQUESTs by hand and
   recording the REPLYs node 1 sends it. Request [rid] executes as the
   counter's [rid]-th increment, so its result is [string_of_int rid]
   and a re-execution would show in both the result and the ledger. *)
type rereply_rig = {
  send : dsts:int list -> rid:int -> unit;  (** client 0's request [rid] *)
  fresh : int list;  (** the nodes a client sends a new request to *)
  run : unit -> unit;  (** 200 ms of virtual time *)
  ledger : Pbftcore.Ledger.t;  (** node 1's *)
  replies : (int * string) list ref;  (** (rid, result) from node 1, newest first *)
}

let rereply_rig (type m) (net : m Bftnet.Network.t) ~run ~ledger ~fresh ~request ~reply_of =
  let replies = ref [] in
  Bftnet.Network.register_client net 0 (fun d ->
      if Bftnet.Network.src_node d = 1 then
        match reply_of d.Bftnet.Network.payload with
        | Some (id, result) -> replies := (id.rid, result) :: !replies
        | None -> ());
  let send ~dsts ~rid =
    let m = request (desc_of_op ~client:0 ~rid "inc") in
    List.iter
      (fun dst ->
        Bftnet.Network.send net ~src:(Bftcrypto.Principal.client 0)
          ~dst:(Bftcrypto.Principal.node dst) ~size:64 m)
      dsts
  in
  { send; fresh; run = (fun () -> run (Time.ms 200)); ledger; replies }

let counter () = Bftapp.Counter.service (Bftapp.Counter.create ())
let everyone = [ 0; 1; 2; 3 ]

let rbft_rereply () =
  let c =
    Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~service:counter
      (Rbft.Params.default ~f:1)
  in
  rereply_rig (Rbft.Cluster.network c) ~run:(Rbft.Cluster.run_for c) ~fresh:everyone
    ~ledger:(Rbft.Node.ledger (Rbft.Cluster.node c 1))
    ~request:(fun desc ->
      Rbft.Messages.Request { desc; sig_valid = true; mac_invalid_for = [] })
    ~reply_of:(function Rbft.Messages.Reply { id; result } -> Some (id, result) | _ -> None)

let aardvark_rereply () =
  let module N = Aardvark.Node in
  let c =
    Aardvark.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~service:counter
      (N.default_config ~f:1)
  in
  rereply_rig (Aardvark.Cluster.network c) ~run:(Aardvark.Cluster.run_for c) ~fresh:everyone
    ~ledger:(N.ledger (Aardvark.Cluster.node c 1))
    ~request:(fun desc -> N.Request { desc; sig_valid = true })
    ~reply_of:(function N.Reply { id; result } -> Some (id, result) | _ -> None)

let spinning_rereply () =
  let module N = Spinning.Node in
  let c =
    Spinning.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~service:counter
      (N.default_config ~f:1)
  in
  rereply_rig (Spinning.Cluster.network c) ~run:(Spinning.Cluster.run_for c) ~fresh:everyone
    ~ledger:(N.ledger (Spinning.Cluster.node c 1))
    ~request:(fun desc -> N.Request { desc })
    ~reply_of:(function N.Reply { id; result } -> Some (id, result) | _ -> None)

(* A Prime client sends each request to one replica, here node 1. *)
let prime_rereply () =
  let module N = Prime.Node in
  let c =
    Prime.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~service:counter
      (N.default_config ~f:1)
  in
  rereply_rig (Prime.Cluster.network c) ~run:(Prime.Cluster.run_for c) ~fresh:[ 1 ]
    ~ledger:(N.ledger (Prime.Cluster.node c 1))
    ~request:(fun desc -> N.Request { desc; sig_valid = true })
    ~reply_of:(function N.Reply { id; result } -> Some (id, result) | _ -> None)

(* [evicted]: four later requests of the client executed after it, so
   request 1's result has left the client's 4-entry reply ring. *)
let rereply_cases =
  [ ("duplicate after execution", false); ("duplicate after eviction", true) ]

let rereply_test make evicted () =
  let rig = make () in
  rig.send ~dsts:rig.fresh ~rid:1;
  rig.run ();
  Alcotest.(check (list (pair int string))) "request 1 executed and answered" [ (1, "1") ]
    !(rig.replies);
  if evicted then begin
    List.iter (fun rid -> rig.send ~dsts:rig.fresh ~rid) [ 2; 3; 4; 5 ];
    rig.run ();
    Alcotest.(check int) "requests 2-5 executed" 5 (Pbftcore.Ledger.count rig.ledger)
  end;
  let count = Pbftcore.Ledger.count rig.ledger in
  let digest = Pbftcore.Ledger.digest rig.ledger in
  let before = List.length !(rig.replies) in
  rig.send ~dsts:[ 1 ] ~rid:1;
  rig.run ();
  Alcotest.(check int) "not executed again" count (Pbftcore.Ledger.count rig.ledger);
  Alcotest.(check string) "ledger digest unchanged" digest (Pbftcore.Ledger.digest rig.ledger);
  Alcotest.(check (list (pair int string)))
    "REPLYs to the duplicate"
    (if evicted then [] else [ (1, "1") ])
    (List.filteri (fun i _ -> i < List.length !(rig.replies) - before) !(rig.replies))

let rereply_suite =
  List.concat_map
    (fun (stack, make) ->
      List.map
        (fun (name, evicted) ->
          Alcotest.test_case (stack ^ ": " ^ name) `Quick (rereply_test make evicted))
        rereply_cases)
    [
      ("rbft", rbft_rereply);
      ("aardvark", aardvark_rereply);
      ("spinning", spinning_rereply);
      ("prime", prime_rereply);
    ]

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
  let p = Bftmetrics.Probe.create () in
  pin (module Rbft)
    (Rbft.Cluster.create ~probe:p ~seed:42L ~clients:3 (Rbft.Params.default ~f:1))
    ~executed:3012
    ~digest:"4dc5433751578433dd10db6e675fd8da21257be1e122e8c60fd7adb68bd154d3"
    ~clients:open_loop ()

(* The configuration the benchmark measures: admission gate and
   adaptive batching on, driven past the ~30 kreq/s peak so the gate
   sheds and the clients back off on BUSY. *)
let test_pin_rbft_flow () =
  let p = Bftmetrics.Probe.create () in
  let cluster =
    Rbft.Cluster.create ~probe:p ~seed:42L ~clients:3
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
  let p = Bftmetrics.Probe.create () in
  pin (module Rbft)
    (Rbft.Cluster.create ~probe:p ~seed:42L ~clients:3
       { (Rbft.Params.default ~f:1) with Rbft.Params.ordering = Rbft.Params.Concurrent })
    ~executed:2845
    ~digest:"6e4594a698f7cb130fd80c1bbbbc1aec5ba14b0471ea97470178d976ce4c0ad2"
    ~clients:[ (1013, 936); (970, 872); (1042, 1037) ]
    ()

let test_pin_aardvark () =
  let p = Bftmetrics.Probe.create () in
  pin (module Aardvark)
    (Aardvark.Cluster.create ~probe:p ~seed:42L ~clients:3 (Aardvark.Node.default_config ~f:1))
    ~executed:3012
    ~digest:"4dc5433751578433dd10db6e675fd8da21257be1e122e8c60fd7adb68bd154d3"
    ~clients:open_loop ()

let test_pin_spinning () =
  let p = Bftmetrics.Probe.create () in
  pin (module Spinning)
    (Spinning.Cluster.create ~probe:p ~seed:42L ~clients:3 (Spinning.Node.default_config ~f:1))
    ~executed:3018
    ~digest:"116a8ea662486f93a990439899a8f32894f2ebb52427e313d80aa7e3a2a74757"
    ~clients:[ (1013, 1012); (970, 967); (1042, 1039) ]
    ()

let test_pin_prime () =
  let p = Bftmetrics.Probe.create () in
  pin (module Prime)
    (Prime.Cluster.create ~probe:p ~seed:42L ~clients:3 (Prime.Node.default_config ~f:1))
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
  let p = Bftmetrics.Probe.create () in
  let attack cluster =
    let heavy = Prime.Cluster.client cluster 0 in
    (Prime.Client.behaviour heavy).Prime.Client.heavy <- true;
    Prime.Client.set_rate heavy 300.0;
    (Prime.Node.faults (Prime.Cluster.node cluster 0)).Prime.Node.delay_to_limit <- true
  in
  pin (module Prime) ~attack
    (Prime.Cluster.create ~probe:p ~seed:42L ~clients:3 (Prime.Node.default_config ~f:1))
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
  let p = Bftmetrics.Probe.create () in
  let attack cluster =
    (Aardvark.Node.faults (Aardvark.Cluster.node cluster 0)).Aardvark.Node.track_required <-
      true
  in
  pin (module Aardvark) ~duration:(Time.ms 2900) ~attack
    (Aardvark.Cluster.create ~probe:p ~seed:42L ~clients:3 (Aardvark.Node.simulation_config ~f:1))
    ~executed:16878
    ~digest:"1fd3009d4259172bb3a564682e0bd1ace035280a5032d8312dec57d0668f1ae3"
    ~clients:[ (5925, 5722); (5754, 5534); (5802, 5622) ]
    ()

(* Figure 3: node 3 delays each batch it proposes by 0.95 s_timeout. *)
let test_pin_spinning_attack () =
  let p = Bftmetrics.Probe.create () in
  let attack cluster =
    (Spinning.Node.faults (Spinning.Cluster.node cluster 3)).Spinning.Node.delay_fraction <-
      0.95
  in
  pin (module Spinning) ~attack
    (Spinning.Cluster.create ~probe:p ~seed:42L ~clients:3 (Spinning.Node.default_config ~f:1))
    ~executed:834
    ~digest:"c5ca5a8fa5faeefaac488464d18c346983ca856660220bf13c481f3d72ea361e"
    ~clients:[ (1013, 287); (970, 290); (1042, 257) ]
    ()

(* RBFT under the paper's three attack plans (Section VI-C), installed
   once the clients run. The ledger digest chains the requests' payload
   digests, so besides the counts each case pins
   node 1's instance changes and the engine's event count: a moved
   flood tick or Delta-tracker wake-up shifts the latter. The unfair
   primary runs the CLI's plan: Lambda = 1.5 ms, batch delay 200 us,
   and node 0 holding client 0's requests by 1 ms once it has ordered
   100. *)
let pin_attack ?(params = Rbft.Params.default ~f:1) plan ~executed ~digest ~clients
    ~instance_changes ~events () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Rbft.Cluster.create ~probe:p ~seed:42L ~clients:3 params in
  let attack cluster = Rbft.Attacks.install cluster (plan params) in
  pin (module Rbft) ~attack cluster ~executed ~digest ~clients ();
  Alcotest.(check int) "instance changes at node 1" instance_changes
    (Rbft.Node.instance_changes (Rbft.Cluster.node cluster 1));
  Alcotest.(check int) "events simulated" events
    (Engine.events_processed (Rbft.Cluster.engine cluster))

let test_pin_rbft_worst1 () =
  pin_attack Rbft.Attacks.worst1 ~executed:3012
    ~digest:"4dc5433751578433dd10db6e675fd8da21257be1e122e8c60fd7adb68bd154d3"
    ~clients:[ (1013, 1009); (970, 963); (1042, 1037) ]
    ~instance_changes:0 ~events:350305 ()

let test_pin_rbft_worst2 () =
  pin_attack Rbft.Attacks.worst2 ~executed:2982
    ~digest:"a0071f5f6f020c8468e60984e18adfb3324066eb6502400a31380a4c03845d14"
    ~clients:[ (1013, 999); (970, 952); (1042, 1031) ]
    ~instance_changes:0 ~events:347403 ()

let test_pin_rbft_unfair () =
  pin_attack
    ~params:(Rbft.Attacks.unfair_params (Rbft.Params.default ~f:1))
    (Rbft.Attacks.unfair_primary ~client:0 ~steps:[ (100, Time.ms 1) ])
    ~executed:3012
    ~digest:"4dc5433751578433dd10db6e675fd8da21257be1e122e8c60fd7adb68bd154d3"
    ~clients:open_loop ~instance_changes:1 ~events:577835 ()

let suites =
  [
    ( "stacks.client-core",
      [ Alcotest.test_case "reply quorum" `Quick test_reply_quorum ] );
    ("stacks.slot", slot_suite);
    ("stacks.rereply", rereply_suite);
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
        Alcotest.test_case "rbft under worst-attack-1" `Quick test_pin_rbft_worst1;
        Alcotest.test_case "rbft under worst-attack-2" `Quick test_pin_rbft_worst2;
        Alcotest.test_case "rbft under the unfair primary" `Quick test_pin_rbft_unfair;
      ] );
  ]
