(* Tests for the PBFT-style ordering instance: a rig wires n replicas
   together through the engine with a fixed message delay and records
   every delivery, so we can check agreement, liveness, batching,
   checkpointing and view changes. *)

open Dessim
open Pbftcore

type rig = {
  engine : Engine.t;
  probe : Bftmetrics.Probe.t;
  replicas : Replica.t array;
  deliveries : (Types.seqno * Types.request_id list) list ref array;
  drop_to : int list ref;  (* replica ids whose inbound messages are dropped *)
  on_receive : (int -> Messages.t -> unit) ref;  (* sees each message a replica gets *)
}

let make_rig ?(n = 4) ?(f = 1) ?(tweak = fun _ c -> c) () =
  let engine = Engine.create () in
  let probe = Bftmetrics.Probe.create () in
  let deliveries = Array.init n (fun _ -> ref []) in
  let replicas = Array.make n None in
  let rig_drop = ref [] and on_receive = ref (fun _ _ -> ()) in
  let delay = Time.us 100 in
  let get i = match replicas.(i) with Some r -> r | None -> assert false in
  let mk i =
    let cfg = tweak i (Replica.default_config ~n ~f ~replica_id:i) in
    let send dst msg =
      if not (List.mem dst !rig_drop) then
        ignore
          (Engine.after engine delay (fun () ->
               !on_receive dst msg;
               Replica.receive (get dst) ~from:i msg))
    in
    let broadcast msg =
      for dst = 0 to n - 1 do
        if dst <> i then send dst msg
      done
    in
    let deliver seq descs =
      deliveries.(i) :=
        (seq, List.map (fun d -> d.Types.id) descs) :: !(deliveries.(i))
    in
    Replica.create ~probe engine cfg
      { Replica.broadcast; deliver; on_view_change = (fun _ -> ()) }
  in
  for i = 0 to n - 1 do
    replicas.(i) <- Some (mk i)
  done;
  {
    engine;
    probe;
    replicas = Array.map (function Some r -> r | None -> assert false) replicas;
    deliveries;
    drop_to = rig_drop;
    on_receive;
  }

let req ?(client = 0) rid = Types.desc_of_op ~client ~rid (Printf.sprintf "op-%d-%d" client rid)

let submit_all rig desc = Array.iter (fun r -> Replica.submit r desc) rig.replicas

let delivered_ids rig i =
  List.rev !(rig.deliveries.(i))
  |> List.concat_map (fun (_, ids) -> ids)

let check_agreement rig =
  let reference = delivered_ids rig 0 in
  Array.iteri
    (fun i _ ->
      if not (Replica.adversary rig.replicas.(i)).Replica.silent then
        Alcotest.(check bool)
          (Printf.sprintf "replica %d agrees with replica 0" i)
          true
          (delivered_ids rig i = reference))
    rig.replicas

let test_basic_ordering () =
  let rig = make_rig () in
  submit_all rig (req 1);
  Engine.run rig.engine;
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d ordered" i) 1
        (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

let test_many_requests_agree () =
  let rig = make_rig () in
  for rid = 1 to 300 do
    submit_all rig (req ~client:(rid mod 5) rid)
  done;
  Engine.run rig.engine;
  Array.iter
    (fun r -> Alcotest.(check int) "all ordered" 300 (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

let test_batching_respects_size () =
  let rig = make_rig ~tweak:(fun _ c -> { c with Replica.batch_size = 10 }) () in
  for rid = 1 to 95 do
    submit_all rig (req rid)
  done;
  Engine.run rig.engine;
  List.iter
    (fun (_, ids) ->
      Alcotest.(check bool) "batch within limit" true (List.length ids <= 10))
    !(rig.deliveries.(1));
  Alcotest.(check int) "all ordered" 95 (Replica.ordered_count rig.replicas.(1))

let test_duplicate_submission () =
  let rig = make_rig () in
  let d = req 1 in
  submit_all rig d;
  submit_all rig d;
  Engine.run rig.engine;
  Alcotest.(check int) "ordered once" 1 (Replica.ordered_count rig.replicas.(0))

let test_partial_batch_timer () =
  (* A single request below batch size must still be ordered, after
     the batch delay. *)
  let rig = make_rig ~tweak:(fun _ c -> { c with Replica.batch_size = 50 }) () in
  submit_all rig (req 1);
  Engine.run rig.engine;
  Alcotest.(check int) "ordered despite partial batch" 1
    (Replica.ordered_count rig.replicas.(2))

let test_silent_faulty_replica () =
  let rig = make_rig () in
  (Replica.adversary rig.replicas.(3)).Replica.silent <- true;
  for rid = 1 to 50 do
    submit_all rig (req rid)
  done;
  Engine.run rig.engine;
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "correct replica %d ordered all" i)
      50
      (Replica.ordered_count rig.replicas.(i))
  done

let test_delaying_primary_still_orders () =
  let rig = make_rig () in
  (Replica.adversary rig.replicas.(0)).Replica.pp_extra_delay <-
    (fun () -> Time.ms 5);
  for rid = 1 to 20 do
    submit_all rig (req rid)
  done;
  Engine.run rig.engine;
  Alcotest.(check int) "all ordered" 20 (Replica.ordered_count rig.replicas.(1));
  Alcotest.(check bool) "delay stretched completion" true
    (Engine.now rig.engine > Time.ms 5);
  check_agreement rig

let test_requests_before_pp_guard () =
  (* A replica must not PREPARE a batch whose requests it has not
     received; here replica 2 gets the request late and the instance
     still completes. *)
  let rig = make_rig () in
  let d = req 1 in
  Array.iteri (fun i r -> if i <> 2 then ignore i; ignore r) rig.replicas;
  Replica.submit rig.replicas.(0) d;
  Replica.submit rig.replicas.(1) d;
  Replica.submit rig.replicas.(3) d;
  ignore
    (Engine.after rig.engine (Time.ms 50) (fun () ->
         Replica.submit rig.replicas.(2) d));
  Engine.run rig.engine;
  Alcotest.(check int) "ordered everywhere" 1
    (Replica.ordered_count rig.replicas.(2));
  check_agreement rig

let test_view_change_rotates_primary () =
  let rig = make_rig () in
  Alcotest.(check int) "initial primary" 0 (Replica.current_primary rig.replicas.(1));
  Array.iter Replica.force_view_change rig.replicas;
  Engine.run rig.engine;
  Array.iter
    (fun r ->
      Alcotest.(check int) "new view" 1 (Replica.view r);
      Alcotest.(check int) "new primary" 1 (Replica.current_primary r);
      Alcotest.(check bool) "out of view change" false (Replica.in_view_change r))
    rig.replicas

let test_view_change_preserves_pending () =
  (* Requests submitted but not yet ordered before a view change must
     be ordered by the new primary. *)
  let rig =
    make_rig
      ~tweak:(fun i c ->
        if i = 0 then { c with Replica.batch_delay = Time.sec 10 } else c)
      ()
  in
  (* Huge batch delay at the initial primary: requests sit pending. *)
  for rid = 1 to 5 do
    submit_all rig (req rid)
  done;
  ignore
    (Engine.after rig.engine (Time.ms 1) (fun () ->
         Array.iter Replica.force_view_change rig.replicas));
  Engine.run ~until:(Time.sec 5) rig.engine;
  Array.iter
    (fun r -> Alcotest.(check int) "reordered after view change" 5 (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

let test_view_change_no_duplicates () =
  let rig = make_rig () in
  for rid = 1 to 30 do
    submit_all rig (req rid)
  done;
  ignore
    (Engine.after rig.engine (Time.us 150) (fun () ->
         Array.iter Replica.force_view_change rig.replicas));
  Engine.run rig.engine;
  (* Every request ordered exactly once despite re-proposal. *)
  Array.iteri
    (fun i _ ->
      let ids = delivered_ids rig i in
      let distinct = List.sort_uniq Types.compare_request_id ids in
      Alcotest.(check int)
        (Printf.sprintf "replica %d no duplicates" i)
        (List.length distinct) (List.length ids);
      Alcotest.(check int) (Printf.sprintf "replica %d count" i) 30 (List.length ids))
    rig.replicas;
  check_agreement rig

let test_checkpoint_gc () =
  let rig =
    make_rig
      ~tweak:(fun _ c ->
        { c with Replica.checkpoint_interval = 4; batch_size = 1 })
      ()
  in
  for rid = 1 to 40 do
    submit_all rig (req rid)
  done;
  Engine.run rig.engine;
  Array.iter
    (fun r ->
      Alcotest.(check bool) "stable checkpoint advanced" true
        (Replica.last_stable r >= 36);
      Alcotest.(check int) "all ordered" 40 (Replica.ordered_count r))
    rig.replicas

let test_checkpoint_gc_exact_live_set () =
  (* The two-pass GC must keep exactly the post-watermark entries: the
     log keeps filling with new batches while checkpoints retire old
     ones, and at quiescence no sequence at or below the stable
     checkpoint may survive in any replica's entry table. *)
  let rig =
    make_rig
      ~tweak:(fun _ c ->
        { c with Replica.checkpoint_interval = 4; batch_size = 1 })
      ()
  in
  (* Feed requests in waves so checkpoints and fresh inserts overlap. *)
  let rid = ref 0 in
  let rec wave remaining =
    if remaining > 0 then begin
      for _ = 1 to 8 do
        incr rid;
        submit_all rig (req !rid)
      done;
      ignore (Engine.after rig.engine (Time.ms 5) (fun () -> wave (remaining - 1)))
    end
  in
  wave 5;
  Engine.run rig.engine;
  Array.iteri
    (fun i r ->
      let stable = Replica.last_stable r in
      Alcotest.(check bool)
        (Printf.sprintf "replica %d checkpointed" i)
        true (stable >= 36);
      let live = Replica.debug_live_seqs r in
      Alcotest.(check bool)
        (Printf.sprintf "replica %d kept only post-watermark entries" i)
        true
        (List.for_all (fun s -> s > stable) live))
    rig.replicas

(* ------------------------------------------------------------------ *)
(* Vote sets                                                           *)
(* ------------------------------------------------------------------ *)

let test_voteset_basics () =
  let v = Voteset.create ~n:10 in
  Alcotest.(check int) "empty count" 0 (Voteset.count v);
  Alcotest.(check bool) "first add fresh" true (Voteset.add v 3);
  Alcotest.(check bool) "duplicate rejected" false (Voteset.add v 3);
  Alcotest.(check bool) "member" true (Voteset.mem v 3);
  Alcotest.(check bool) "non-member" false (Voteset.mem v 4);
  Alcotest.(check bool) "out of range high" false (Voteset.add v 10);
  Alcotest.(check bool) "out of range low" false (Voteset.add v (-1));
  ignore (Voteset.add v 0);
  ignore (Voteset.add v 9);
  Alcotest.(check int) "count tracks adds" 3 (Voteset.count v);
  Alcotest.(check (list int)) "ascending ids" [ 0; 3; 9 ] (Voteset.to_list v);
  Voteset.clear v;
  Alcotest.(check int) "cleared" 0 (Voteset.count v);
  Alcotest.(check bool) "cleared member gone" false (Voteset.mem v 3)

let test_voteset_tagged () =
  let v = Voteset.Tagged.create ~n:7 in
  (* Before the digest is known every vote counts provisionally. *)
  Alcotest.(check bool) "vote a" true (Voteset.Tagged.add v ~replica:1 ~digest:"a");
  Alcotest.(check bool) "vote b" true (Voteset.Tagged.add v ~replica:2 ~digest:"b");
  Alcotest.(check int) "provisional matching" 2 (Voteset.Tagged.matching v);
  (* Fixing the reference rescans: only votes for "a" still match. *)
  Voteset.Tagged.set_reference v "a";
  Alcotest.(check int) "rescan keeps matches" 1 (Voteset.Tagged.matching v);
  Alcotest.(check bool) "duplicate replica rejected" false
    (Voteset.Tagged.add v ~replica:1 ~digest:"a");
  Alcotest.(check bool) "matching vote" true
    (Voteset.Tagged.add v ~replica:3 ~digest:"a");
  Alcotest.(check bool) "mismatching vote recorded" true
    (Voteset.Tagged.add v ~replica:4 ~digest:"z");
  Alcotest.(check int) "only matching counted" 2 (Voteset.Tagged.matching v);
  Alcotest.(check int) "all votes counted" 4 (Voteset.Tagged.count v);
  Voteset.Tagged.clear v;
  Alcotest.(check int) "cleared votes" 0 (Voteset.Tagged.count v);
  (* The reference digest survives a clear (view-change resets). *)
  Alcotest.(check bool) "post-clear vote" true
    (Voteset.Tagged.add v ~replica:5 ~digest:"a");
  Alcotest.(check int) "post-clear matching" 1 (Voteset.Tagged.matching v)

let test_equivocation_not_committed () =
  (* Inject two conflicting PRE-PREPAREs for the same (view, seq) at
     different replicas: at most one of the conflicting batches can be
     ordered, never both. *)
  let rig = make_rig () in
  let d1 = req 1 and d2 = req 2 in
  submit_all rig d1;
  submit_all rig d2;
  (* Stop the real primary from acting; drive PPs by hand. *)
  (Replica.adversary rig.replicas.(0)).Replica.silent <- true;
  let pp descs = { Messages.view = 0; seq = 1; descs } in
  Replica.receive rig.replicas.(1) ~from:0 (Messages.Pre_prepare (pp [ d1 ]));
  Replica.receive rig.replicas.(2) ~from:0 (Messages.Pre_prepare (pp [ d2 ]));
  Replica.receive rig.replicas.(3) ~from:0 (Messages.Pre_prepare (pp [ d1 ]));
  Engine.run ~until:(Time.sec 1) rig.engine;
  (* With conflicting PPs, seq 1 cannot gather both quorums: replicas
     1..3 may order [d1] (two matching PPs) but never [d2]. *)
  for i = 1 to 3 do
    let ids = delivered_ids rig i in
    Alcotest.(check bool)
      (Printf.sprintf "replica %d never orders the minority batch" i)
      false
      (List.mem d2.Types.id ids && not (List.mem d1.Types.id ids))
  done;
  (* Agreement among correct replicas on what was delivered at seq 1. *)
  let at_seq1 i = List.assoc_opt 1 (List.rev !(rig.deliveries.(i))) in
  let delivered = List.filter_map at_seq1 [ 1; 2; 3 ] in
  match delivered with
  | [] -> ()
  | first :: rest ->
    List.iter
      (fun other ->
        Alcotest.(check bool) "same batch at seq 1" true (other = first))
      rest

let test_unfair_client_hold () =
  let rig = make_rig () in
  (Replica.adversary rig.replicas.(0)).Replica.client_hold <-
    (fun id -> if id.Types.client = 1 then Time.ms 20 else Time.zero);
  let d_fast = req ~client:0 1 and d_slow = req ~client:1 1 in
  submit_all rig d_slow;
  submit_all rig d_fast;
  Engine.run rig.engine;
  (* Both ordered, but the held client's request comes later. *)
  let ids = delivered_ids rig 1 in
  Alcotest.(check int) "both ordered" 2 (List.length ids);
  Alcotest.(check bool) "held client ordered last" true
    (ids = [ d_fast.Types.id; d_slow.Types.id ])

let test_early_mismatching_votes_do_not_count () =
  (* A Byzantine replica sends PREPARE/COMMIT with a bogus digest
     before the PRE-PREPARE arrives; those votes must not count toward
     the quorums of the real batch. *)
  let rig = make_rig () in
  let d = req 1 in
  submit_all rig d;
  (* Bogus early votes from "replica 3" for seq 1. *)
  let bogus = String.make 32 'Z' in
  Replica.receive rig.replicas.(1) ~from:3
    (Messages.Prepare { view = 0; seq = 1; digest = bogus });
  Replica.receive rig.replicas.(1) ~from:3
    (Messages.Commit { view = 0; seq = 1; digest = bogus });
  (* Silence replicas 2 and 3 so the real quorum cannot form: if the
     bogus votes counted, replica 1 could commit/deliver with only the
     primary's and its own votes plus the fakes. *)
  (Replica.adversary rig.replicas.(2)).Replica.silent <- true;
  (Replica.adversary rig.replicas.(3)).Replica.silent <- true;
  Engine.run ~until:(Time.ms 100) rig.engine;
  (* Without the digest check the bogus votes would complete the 2f
     prepare and 2f+1 commit quorums at replica 1 (primary PP + own
     vote + fakes) and deliver; with it, nothing can be delivered
     while two replicas stay mute. *)
  Alcotest.(check int) "no delivery from poisoned quorums" 0
    (Replica.ordered_count rig.replicas.(1))

let test_rate_limit_throttles () =
  (* The adversarial rate cap holds ordering to the configured rate
     regardless of batch fill. *)
  let rig = make_rig () in
  (Replica.adversary rig.replicas.(0)).Replica.pp_rate_limit <- (fun () -> 100.0);
  for rid = 1 to 200 do
    submit_all rig (req rid)
  done;
  Engine.run ~until:(Time.sec 1) rig.engine;
  let ordered = Replica.ordered_count rig.replicas.(1) in
  Alcotest.(check bool)
    (Printf.sprintf "throttled to ~100/s (got %d)" ordered)
    true
    (ordered > 60 && ordered < 140)

let test_state_transfer_catches_up_laggard () =
  (* Cut a replica off, let the others pass a checkpoint, reconnect:
     the stable checkpoint pulls the laggard forward without replay. *)
  let rig =
    make_rig ~tweak:(fun _ c -> { c with Replica.checkpoint_interval = 4; batch_size = 1 }) ()
  in
  rig.drop_to := [ 3 ];
  for rid = 1 to 20 do
    Replica.submit rig.replicas.(0) (req rid);
    Replica.submit rig.replicas.(1) (req rid);
    Replica.submit rig.replicas.(2) (req rid)
  done;
  Engine.run rig.engine;
  Alcotest.(check int) "laggard saw nothing" 0 (Replica.ordered_count rig.replicas.(3));
  rig.drop_to := [];
  (* New traffic (delivered to everyone) carries checkpoints forward. *)
  for rid = 21 to 60 do
    submit_all rig (req rid)
  done;
  Engine.run rig.engine;
  Alcotest.(check bool) "laggard state-transferred" true
    (Replica.state_transfers rig.replicas.(3) >= 1);
  Alcotest.(check bool) "laggard moved past the gap" true
    (Replica.last_delivered_seq rig.replicas.(3) >= 20);
  for i = 0 to 2 do
    Alcotest.(check int)
      (Printf.sprintf "replica %d ordered all" i)
      60
      (Replica.ordered_count rig.replicas.(i))
  done

let test_new_primary_reproposes_inflight () =
  (* Batches pre-prepared but not yet committed when the view changes
     are re-proposed by the new primary (no request is lost). *)
  let rig = make_rig () in
  (* Let the primary propose but suppress its commits by silencing it
     right after proposals went out. *)
  for rid = 1 to 10 do
    submit_all rig (req rid)
  done;
  ignore
    (Engine.after rig.engine (Time.us 120) (fun () ->
         (* PPs are in flight; force the change before commits complete. *)
         Array.iter Replica.force_view_change rig.replicas));
  Engine.run rig.engine;
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d ordered all" i) 10
        (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

(* A new primary re-batches the requests it holds in the order it was
   submitted them, whatever their client ids: neither the pool's hash
   layout nor request-id order. Only replica 1, the primary of view 1,
   is submitted them, so nothing orders them in view 0. *)
let test_new_primary_rebatches_in_arrival_order () =
  let rig = make_rig () in
  let order = [ req ~client:7 1; req ~client:2 1; req ~client:5 3 ] in
  List.iter (Replica.submit rig.replicas.(1)) order;
  Array.iter Replica.force_view_change rig.replicas;
  Engine.run rig.engine;
  let ids = List.map (fun (d : Types.request_desc) -> d.id) order in
  Array.iteri
    (fun i _ ->
      Alcotest.(check bool)
        (Printf.sprintf "replica %d delivers in submission order" i)
        true
        (List.rev !(rig.deliveries.(i)) = [ (1, ids) ]))
    rig.replicas

(* [pending_count] is the size of the pool of known, undelivered
   requests. The test tracks, per replica, every request it was
   submitted or was sent in a PRE-PREPARE or NEW-VIEW, and every
   request it delivered; the pool must hold exactly the difference at
   every point of a run with a view change whose new primary
   re-proposes in-flight batches and re-batches the rest, including
   requests some replicas only learn from a PRE-PREPARE and one the new
   primary delivers without ever having been submitted it. *)
let test_pending_count_tracks_undelivered () =
  let rig = make_rig () in
  let offered = Array.make 4 Types.Request_id_set.empty in
  let offer i (d : Types.request_desc) =
    offered.(i) <- Types.Request_id_set.add d.id offered.(i)
  in
  (rig.on_receive :=
     fun dst -> function
       | Messages.Pre_prepare pp -> List.iter (offer dst) pp.descs
       | Messages.New_view { pre_prepares; _ } ->
         List.iter (fun (pp : Messages.pre_prepare) -> List.iter (offer dst) pp.descs)
           pre_prepares
       | _ -> ());
  let check_all label =
    Array.iteri
      (fun i r ->
        let delivered = Types.Request_id_set.of_list (delivered_ids rig i) in
        Alcotest.(check int)
          (Printf.sprintf "%s: replica %d" label i)
          (Types.Request_id_set.cardinal (Types.Request_id_set.diff offered.(i) delivered))
          (Replica.pending_count r))
      rig.replicas
  in
  let submit_to ids desc =
    List.iter
      (fun i ->
        offer i desc;
        Replica.submit rig.replicas.(i) desc)
      ids
  in
  let submit_all desc = submit_to [ 0; 1; 2; 3 ] desc in
  (* Request 1 reaches every replica but 1, the primary of view 1, and
     nothing reaches replicas 0 and 1: only 2 and 3 prepare it and
     send their commits, so the batch is in flight when the view
     changes and the new primary re-proposes it from their
     certificates, without knowing the request. *)
  rig.drop_to := [ 0; 1 ];
  submit_to [ 0; 2; 3 ] (req 1);
  ignore
    (Engine.after rig.engine (Time.ms 3) (fun () ->
         check_all "before the view change";
         rig.drop_to := [];
         (* Known to all but replica 3, which learns them from the
            re-batch. *)
         for rid = 2 to 5 do
           submit_to [ 0; 1; 2 ] (req rid)
         done;
         Array.iter Replica.force_view_change rig.replicas));
  ignore
    (Engine.after rig.engine (Time.us 3100) (fun () ->
         for rid = 6 to 8 do
           submit_all (req rid)
         done;
         check_all "during the view change"));
  for k = 1 to 100 do
    ignore (Engine.after rig.engine (Time.us (50 * k)) (fun () -> check_all "sampled"))
  done;
  Engine.run rig.engine;
  Alcotest.(check bool) "the view changed" true
    (Array.for_all (fun r -> Replica.view r = 1) rig.replicas);
  (* The late submission of a request the replica delivered without
     knowing it. *)
  submit_all (req 1);
  check_all "after the run";
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d ordered all" i) 8
        (Replica.ordered_count r);
      Alcotest.(check int) (Printf.sprintf "replica %d drained" i) 0 (Replica.pending_count r))
    rig.replicas;
  check_agreement rig

(* Regression: a delay-attack primary schedules its PRE-PREPARE
   broadcasts in closures; a view change completing before a closure
   fires must kill it. Without the [pp.view = t.view && is_primary]
   guard the demoted replica would broadcast a stale-view PP and mark
   [sent_prepare] on the new view's entry for the slot — it then
   ignores the new primary's batch for that seq and can never commit
   or deliver it. Replica 0 proposes each request at once (batch size
   1), so its PRE-PREPAREs are held back before the 1ms view change. *)
let test_stale_delayed_pp_dies_with_view () =
  let rig =
    make_rig
      ~tweak:(fun i c -> if i = 0 then { c with Replica.batch_size = 1 } else c)
      ()
  in
  (Replica.adversary rig.replicas.(0)).Replica.pp_extra_delay <-
    (fun () -> Time.ms 5);
  let stale_pps = ref 0 in
  let tok =
    Bftmetrics.Probe.subscribe rig.probe (fun (e : Bftmetrics.Event.t) ->
        match e.kind with
        | Bftmetrics.Event.Pre_prepare_sent { view = 0; _ } when e.node = 0 ->
          (* Any view-0 PP broadcast after the 1ms view change is the
             stale closure firing; none may exist past that point. *)
          if e.time > Time.ms 1 then incr stale_pps
        | _ -> ())
  in
  for rid = 1 to 8 do
    submit_all rig (req rid)
  done;
  ignore
    (Engine.after rig.engine (Time.ms 1) (fun () ->
         Array.iter Replica.force_view_change rig.replicas));
  Engine.run rig.engine;
  tok ();
  Alcotest.(check int) "no stale-view pre-prepare issued" 0 !stale_pps;
  Array.iteri
    (fun i r ->
      Alcotest.(check int) (Printf.sprintf "replica %d ordered all" i) 8
        (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

(* Regression: a partial batch armed a flush timer on the primary; a
   view change demoting the primary must cancel it (and the
   [is_primary] re-check in [flush_batch] must hold even if a timer
   survives), so the demoted replica never proposes after demotion. *)
let test_demoted_primary_batch_timer_cancelled () =
  let rig =
    make_rig
      ~tweak:(fun i c ->
        if i = 0 then { c with Replica.batch_delay = Time.ms 20 } else c)
      ()
  in
  let late_pps = ref 0 in
  let tok =
    Bftmetrics.Probe.subscribe rig.probe (fun (e : Bftmetrics.Event.t) ->
        match e.kind with
        | Bftmetrics.Event.Pre_prepare_sent _ when e.node = 0 && e.time > Time.ms 1
          ->
          incr late_pps
        | _ -> ())
  in
  (* Three requests sit in replica 0's pending batch behind the 20ms
     timer; the view change at 1ms demotes it before any flush. *)
  for rid = 1 to 3 do
    submit_all rig (req rid)
  done;
  ignore
    (Engine.after rig.engine (Time.ms 1) (fun () ->
         Array.iter Replica.force_view_change rig.replicas));
  Engine.run rig.engine;
  tok ();
  Alcotest.(check int) "demoted primary proposed nothing" 0 !late_pps;
  Array.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d ordered all" i)
        3 (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

(* Regression for the delivered-slot re-vote: a replica that missed a
   slot's quorum round re-proposes the batch after becoming primary
   (or re-batches the request at the same seq). Replicas that already
   delivered the slot must answer the re-proposal with fresh
   prepare/commit votes in the new view — staying mute wedges the new
   primary's in-order delivery on that slot forever, which is exactly
   what a mid-commit instance change produced under worst1. *)
let test_delivered_slot_revote_unwedges_new_primary () =
  let rig = make_rig () in
  (* Replica 1 hears nothing while the others deliver seq 1. *)
  rig.drop_to := [ 1 ];
  submit_all rig (req 1);
  Engine.run rig.engine;
  Array.iteri
    (fun i r ->
      if i <> 1 then
        Alcotest.(check int)
          (Printf.sprintf "replica %d delivered without 1" i)
          1 (Replica.ordered_count r))
    rig.replicas;
  Alcotest.(check int) "replica 1 behind" 0 (Replica.ordered_count rig.replicas.(1));
  (* Heal the network and rotate: replica 1 becomes the view-1
     primary and re-proposes the request it still holds at seq 1. *)
  rig.drop_to := [];
  Array.iter Replica.force_view_change rig.replicas;
  Engine.run rig.engine;
  Array.iteri
    (fun i r ->
      Alcotest.(check int)
        (Printf.sprintf "replica %d delivered after revote" i)
        1 (Replica.ordered_count r))
    rig.replicas;
  check_agreement rig

let prop_agreement_random_order =
  QCheck.Test.make ~name:"replicas agree under random submission orders"
    QCheck.(pair (int_bound 10_000) (int_range 1 60))
    (fun (seed, nreqs) ->
      let rig = make_rig () in
      let rng = Rng.create (Int64.of_int (seed + 1)) in
      (* Submit each request to each replica at an independent random
         time; include occasional missing submissions to one replica
         (it learns descriptors from the PRE-PREPARE). *)
      for rid = 1 to nreqs do
        let d = req ~client:(rid mod 3) rid in
        Array.iteri
          (fun _ r ->
            let delay = Time.us (Rng.int rng 2_000) in
            ignore (Engine.after rig.engine delay (fun () -> Replica.submit r d)))
          rig.replicas
      done;
      Engine.run rig.engine;
      let reference = delivered_ids rig 0 in
      List.length reference = nreqs
      && Array.for_all
           (fun i -> delivered_ids rig i = reference)
           (Array.init 4 (fun i -> i)))

let test_one_source_one_vote () =
  (* f = 1, node 0 the Byzantine primary. Replica 1 gets a PRE-PREPARE
     for request 1 and three PREPAREs and COMMITs, all from node 0;
     replicas 2 and 3 get a PRE-PREPARE for request 2 and one COMMIT
     from node 0. Were votes counted by an id the sender writes, node 0
     could name replicas 2, 3 and 0 in them, and replica 1 would order
     request 1 while replicas 2 and 3 order request 2 at the same seq.
     Counted by source, node 0 is one vote. *)
  let rig = make_rig () in
  let d1 = req 1 and d2 = req 2 in
  submit_all rig d1;
  submit_all rig d2;
  (Replica.adversary rig.replicas.(0)).Replica.silent <- true;
  let pp descs = Messages.Pre_prepare { Messages.view = 0; seq = 1; descs } in
  let dig1 = Messages.batch_digest [ d1 ] and dig2 = Messages.batch_digest [ d2 ] in
  let from_0 i m = Replica.receive rig.replicas.(i) ~from:0 m in
  from_0 1 (pp [ d1 ]);
  for _ = 1 to 3 do
    from_0 1 (Messages.Prepare { view = 0; seq = 1; digest = dig1 });
    from_0 1 (Messages.Commit { view = 0; seq = 1; digest = dig1 })
  done;
  List.iter
    (fun i ->
      from_0 i (pp [ d2 ]);
      from_0 i (Messages.Commit { view = 0; seq = 1; digest = dig2 }))
    [ 2; 3 ];
  Engine.run ~until:(Time.ms 100) rig.engine;
  let at_seq1 i = List.assoc_opt 1 (List.rev !(rig.deliveries.(i))) in
  Alcotest.(check (option (list int))) "replica 1 does not order" None
    (Option.map (List.map (fun (id : Types.request_id) -> id.rid)) (at_seq1 1));
  List.iter
    (fun i ->
      Alcotest.(check (option (list int)))
        (Printf.sprintf "replica %d orders request 2 at seq 1" i)
        (Some [ 2 ])
        (Option.map (List.map (fun (id : Types.request_id) -> id.rid)) (at_seq1 i)))
    [ 2; 3 ]

(* PBFT's prepared certificate is 2f matching PREPAREs from backups: a
   primary sends no PREPARE, so one that does is Byzantine and must
   not count. At f = 1 replica 1 holds the PRE-PREPARE and its own
   PREPARE; a PREPARE from the primary (node 0) would make two and
   prepare the batch with one correct backup. Only a second backup's
   PREPARE may. *)
let test_primary_prepare_not_counted () =
  let engine = Engine.create () in
  let sent = ref [] in
  let cfg = Replica.default_config ~n:4 ~f:1 ~replica_id:1 in
  let r =
    Replica.create ~probe:(Bftmetrics.Probe.create ()) engine cfg
      {
        Replica.broadcast = (fun m -> sent := m :: !sent);
        deliver = (fun _ _ -> ());
        on_view_change = (fun _ -> ());
      }
  in
  let d = req 1 in
  Replica.submit r d;
  let digest = Messages.batch_digest [ d ] in
  let commits () =
    List.length (List.filter (function Messages.Commit _ -> true | _ -> false) !sent)
  in
  Replica.receive r ~from:0 (Messages.Pre_prepare { Messages.view = 0; seq = 1; descs = [ d ] });
  Replica.receive r ~from:0 (Messages.Prepare { view = 0; seq = 1; digest });
  Engine.run ~until:(Time.ms 10) engine;
  Alcotest.(check int) "primary's PREPARE prepares nothing" 0 (commits ());
  Replica.receive r ~from:2 (Messages.Prepare { view = 0; seq = 1; digest });
  Engine.run ~until:(Time.ms 20) engine;
  Alcotest.(check int) "a second backup's PREPARE prepares the batch" 1 (commits ())

(* Replicas that receive one shared PRE-PREPARE digest its batch once
   between them: the digest is remembered by the batch's identity, an
   exact input. Batches an equivocating primary sends that share a head
   but differ after it are digested apart, and a memoised answer equals
   a fresh one (a structurally equal copy is a different list, so it is
   hashed again). *)
let test_batch_digest_memo () =
  let batch = [ req 1; req 2 ] and forked = [ req 1; req 3 ] in
  let copy l = List.map Fun.id l in
  let d = Messages.batch_digest batch and f = Messages.batch_digest forked in
  Alcotest.(check bool) "equivocating batches differ" false (String.equal d f);
  Alcotest.(check string) "memoised = fresh" (Messages.batch_digest (copy batch))
    (Messages.batch_digest batch);
  Alcotest.(check string) "fork memoised = fresh" (Messages.batch_digest (copy forked))
    (Messages.batch_digest forked);
  (* Evict both from the memo: the answers stay the same. *)
  for i = 10 to 40 do
    ignore (Messages.batch_digest [ req i ])
  done;
  Alcotest.(check string) "after eviction" d (Messages.batch_digest batch);
  Alcotest.(check string) "fork after eviction" f (Messages.batch_digest forked);
  let blocks0 = Bftcrypto.Sha256.blocks_hashed () in
  ignore (Messages.batch_digest batch);
  Alcotest.(check int) "a repeated batch is not hashed" 0
    (Bftcrypto.Sha256.blocks_hashed () - blocks0)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "pbft.ordering",
      [
        Alcotest.test_case "basic ordering" `Quick test_basic_ordering;
        Alcotest.test_case "many requests agree" `Quick test_many_requests_agree;
        Alcotest.test_case "batch size respected" `Quick test_batching_respects_size;
        Alcotest.test_case "duplicate submission" `Quick test_duplicate_submission;
        Alcotest.test_case "partial batch timer" `Quick test_partial_batch_timer;
        Alcotest.test_case "tolerates silent replica" `Quick test_silent_faulty_replica;
        Alcotest.test_case "delaying primary" `Quick test_delaying_primary_still_orders;
        Alcotest.test_case "f+1 request guard" `Quick test_requests_before_pp_guard;
        Alcotest.test_case "unfair client hold" `Quick test_unfair_client_hold;
        Alcotest.test_case "rate-limit adversary" `Quick test_rate_limit_throttles;
        Alcotest.test_case "early mismatching votes rejected" `Quick
          test_early_mismatching_votes_do_not_count;
      ]
      @ qsuite [ prop_agreement_random_order ] );
    ( "pbft.viewchange",
      [
        Alcotest.test_case "rotates primary" `Quick test_view_change_rotates_primary;
        Alcotest.test_case "preserves pending requests" `Quick
          test_view_change_preserves_pending;
        Alcotest.test_case "no duplicate deliveries" `Quick test_view_change_no_duplicates;
        Alcotest.test_case "re-proposes in-flight batches" `Quick
          test_new_primary_reproposes_inflight;
        Alcotest.test_case "stale delayed pp dies with view" `Quick
          test_stale_delayed_pp_dies_with_view;
        Alcotest.test_case "demoted primary batch timer cancelled" `Quick
          test_demoted_primary_batch_timer_cancelled;
        Alcotest.test_case "delivered-slot revote unwedges new primary" `Quick
          test_delivered_slot_revote_unwedges_new_primary;
        Alcotest.test_case "re-batch in arrival order" `Quick
          test_new_primary_rebatches_in_arrival_order;
        Alcotest.test_case "pending count = undelivered" `Quick
          test_pending_count_tracks_undelivered;
      ] );
    ( "pbft.checkpoint",
      [
        Alcotest.test_case "garbage collection" `Quick test_checkpoint_gc;
        Alcotest.test_case "gc keeps only post-watermark entries" `Quick
          test_checkpoint_gc_exact_live_set;
        Alcotest.test_case "state transfer catches up laggard" `Quick
          test_state_transfer_catches_up_laggard;
      ] );
    ( "pbft.voteset",
      [
        Alcotest.test_case "bitset add/mem/count" `Quick test_voteset_basics;
        Alcotest.test_case "tagged digests and reference" `Quick
          test_voteset_tagged;
      ] );
    ( "pbft.byzantine",
      [
        Alcotest.test_case "equivocation cannot double-commit" `Quick
          test_equivocation_not_committed;
        Alcotest.test_case "one source is one vote" `Quick test_one_source_one_vote;
        Alcotest.test_case "a primary's PREPARE is not counted" `Quick
          test_primary_prepare_not_counted;
        Alcotest.test_case "batch digests memoised by identity" `Quick
          test_batch_digest_memo;
      ] );
  ]
