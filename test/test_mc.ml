(* Tests for bftmc, the explicit-state model checker: world replay
   determinism, the enabled-frontier FIFO rule, search soundness of the
   partial-order reduction, and the counterexample pipeline down to a
   shrunk .scn scenario. *)

open Dessim

(* Small worlds keep these tests fast; the full acceptance sweep (2
   requests, depth 6, fault placements) runs in CI's mc-smoke job. *)
let small_cfg =
  { Bftmc.World.default_config with Bftmc.World.requests = 1; depth = 4 }

let first_enabled w =
  match Bftmc.World.enabled w with
  | c :: _ -> c
  | [] -> Alcotest.fail "no enabled choice"

let test_world_replay_fingerprint () =
  (* Drive a world along a greedy schedule, then replay the recorded
     ids into a fresh world: fingerprints must match step for step.
     This is the checker's core determinism contract — and, since the
     mc world runs with zero jitter, almost every engine pop is a
     same-timestamp tie, so it doubles as the replay-under-heavy-ties
     regression at the audit level. *)
  let w = Bftmc.World.create small_cfg in
  let fps = ref [] in
  for _ = 1 to 4 do
    Bftmc.World.step w (first_enabled w);
    fps := Bftmc.World.fingerprint w :: !fps
  done;
  let ids = Bftmc.World.fired w in
  Bftmc.World.destroy w;
  let w2 = Bftmc.World.create small_cfg in
  let fps2 = ref [] in
  List.iter
    (fun id ->
      Bftmc.World.step_id w2 id;
      fps2 := Bftmc.World.fingerprint w2 :: !fps2)
    ids;
  Bftmc.World.destroy w2;
  Alcotest.(check (list string)) "replay reproduces every fingerprint"
    (List.rev !fps) (List.rev !fps2)

let test_world_enabled_channel_fifo () =
  (* Per (src, dst) channel only the oldest parked delivery is
     schedulable (TCP FIFO); enabled is id-sorted and duplicate-free. *)
  let w = Bftmc.World.create small_cfg in
  let check_frontier w =
    let en = Bftmc.World.enabled w in
    let ids = List.map (fun (c : Engine.choice) -> c.Engine.id) en in
    Alcotest.(check (list int)) "ascending ids" (List.sort compare ids) ids;
    let chans =
      List.map (fun (c : Engine.choice) -> (c.Engine.src, c.Engine.dst)) en
    in
    Alcotest.(check int) "one delivery per channel"
      (List.length (List.sort_uniq compare chans))
      (List.length chans);
    List.iter
      (fun (c : Engine.choice) ->
        List.iter
          (fun (p : Engine.choice) ->
            if p.Engine.src = c.Engine.src && p.Engine.dst = c.Engine.dst then
              Alcotest.(check bool) "channel head has the lowest id" true
                (c.Engine.id <= p.Engine.id))
          (Bftmc.World.pending w))
      en
  in
  check_frontier w;
  Bftmc.World.step w (first_enabled w);
  check_frontier w;
  Bftmc.World.destroy w

let test_search_clean_and_deterministic () =
  let o1 = Bftmc.Search.run small_cfg in
  Alcotest.(check bool) "clean sweep" true (o1.Bftmc.Search.counterexample = None);
  Alcotest.(check bool) "explored something" true
    (o1.Bftmc.Search.stats.Bftmc.Search.states > 10);
  Alcotest.(check bool) "judged leaves" true
    (o1.Bftmc.Search.stats.Bftmc.Search.leaves > 0);
  (* Bitwise-identical re-run: same states, same dedup, same leaves. *)
  let o2 = Bftmc.Search.run small_cfg in
  Alcotest.(check int) "states deterministic"
    o1.Bftmc.Search.stats.Bftmc.Search.states
    o2.Bftmc.Search.stats.Bftmc.Search.states;
  Alcotest.(check int) "dedup deterministic"
    o1.Bftmc.Search.stats.Bftmc.Search.dedup_hits
    o2.Bftmc.Search.stats.Bftmc.Search.dedup_hits;
  Alcotest.(check int) "leaves deterministic"
    o1.Bftmc.Search.stats.Bftmc.Search.leaves
    o2.Bftmc.Search.stats.Bftmc.Search.leaves

let test_search_por_sound_and_smaller () =
  (* POR must (a) shrink the state count and (b) stay sound: a clean
     full search implies a clean reduced search, and here neither finds
     a violation while both drain the same frontier grammar. *)
  let full = Bftmc.Search.run ~por:false small_cfg in
  let reduced = Bftmc.Search.run ~por:true small_cfg in
  Alcotest.(check bool) "full clean" true (full.Bftmc.Search.counterexample = None);
  Alcotest.(check bool) "reduced clean" true
    (reduced.Bftmc.Search.counterexample = None);
  Alcotest.(check bool) "reduction shrinks the space" true
    (reduced.Bftmc.Search.stats.Bftmc.Search.states
    < full.Bftmc.Search.stats.Bftmc.Search.states);
  Alcotest.(check bool) "skips accounted" true
    (reduced.Bftmc.Search.stats.Bftmc.Search.por_skipped > 0)

let test_placements () =
  Alcotest.(check (list (list int))) "fault-free only"
    [ [] ]
    (Bftmc.Search.placements ~n:4 ~max_faults:0 ~f:1);
  Alcotest.(check (list (list int))) "singletons, fault-free first"
    [ []; [ 0 ]; [ 1 ]; [ 2 ]; [ 3 ] ]
    (Bftmc.Search.placements ~n:4 ~max_faults:1 ~f:1);
  (* Capped at f no matter what the flag says. *)
  Alcotest.(check int) "capped at f" 5
    (List.length (Bftmc.Search.placements ~n:4 ~max_faults:3 ~f:1))

let test_mutation_found_and_cex_reproduces () =
  (* The planted ic-quorum bug must surface, and the extracted .scn
     scenario must replay to the same invariant digest after
     shrinking — the full counterexample pipeline. *)
  let cfg =
    { Bftmc.World.default_config with Bftmc.World.requests = 2; mutate = true }
  in
  let o = Bftmc.Search.run cfg in
  match o.Bftmc.Search.counterexample with
  | None -> Alcotest.fail "mutation not detected"
  | Some cex ->
    Alcotest.(check bool) "safety violation" true
      (cex.Bftmc.Search.cex_safety <> []);
    Alcotest.(check bool) "the planted invariant" true
      (List.exists
         (fun v ->
           v.Bftaudit.Auditor.invariant = "instance-change-quorum")
         cex.Bftmc.Search.cex_safety);
    Alcotest.(check bool) "non-empty schedule" true
      (cex.Bftmc.Search.schedule <> []);
    let path = Filename.temp_file "mc-cex" ".scn" in
    let repro = Bftmc.Cex.extract ~budget:60 ~out:path cex in
    Alcotest.(check bool) "scenario reproduces the digest" true
      repro.Bftmc.Cex.reproduced;
    (* The saved artifact round-trips and still reproduces. *)
    (match Bftchaos.Scenario.load path with
     | Error e -> Alcotest.fail e
     | Ok s ->
       Alcotest.(check bool) "saved .scn still fails the same way" true
         (Bftmc.Cex.reproduces ~target:repro.Bftmc.Cex.target_digest s));
    Sys.remove path

let test_liveness_monitor_rules () =
  (* Unit-level checks of the two quiescence rules, driven through the
     audit bus without a cluster. *)
  let module L = Bftaudit.Liveness in
  let module E = Bftmetrics.Event in
  let l = L.create () in
  let vote node cpi =
    L.on_event l
      {
        E.time = Time.zero;
        node;
        instance = 0;
        kind = E.Instance_change_vote { cpi };
      }
  in
  let change node cpi =
    L.on_event l
      {
        E.time = Time.zero;
        node;
        instance = 0;
        kind = E.Instance_changed { cpi; recovery = false };
      }
  in
  let correct = [ 0; 1; 2; 3 ] in
  (* No events: clean. *)
  Alcotest.(check int) "silent system clean" 0
    (List.length (L.check l ~quorum:3 ~correct));
  (* Quorum of votes with no completion: progress rule fires. *)
  vote 0 0;
  vote 1 0;
  vote 2 0;
  let problems = L.check l ~quorum:3 ~correct in
  Alcotest.(check bool) "progress rule fires" true
    (List.exists
       (fun (p : L.problem) -> p.L.invariant = "instance-change-progress")
       problems);
  (* Everyone completes: clean again. *)
  List.iter (fun n -> change n 0) correct;
  Alcotest.(check int) "all completed clean" 0
    (List.length (L.check l ~quorum:3 ~correct));
  (* One node completes a later change alone: completion rule fires. *)
  change 0 1;
  let problems = L.check l ~quorum:3 ~correct in
  Alcotest.(check bool) "completion rule fires" true
    (List.exists
       (fun (p : L.problem) -> p.L.invariant = "instance-change-completion")
       problems);
  (* A crashed node is exempt: only correct nodes are quantified. *)
  List.iter (fun n -> change n 1) [ 1; 2 ];
  let problems = L.check l ~quorum:3 ~correct:[ 0; 1; 2 ] in
  Alcotest.(check int) "laggard 3 excluded when crashed" 0
    (List.length problems)

let suites =
  [
    ( "mc.world",
      [
        Alcotest.test_case "replay reproduces fingerprints" `Slow
          test_world_replay_fingerprint;
        Alcotest.test_case "enabled frontier is channel-FIFO" `Quick
          test_world_enabled_channel_fifo;
      ] );
    ( "mc.search",
      [
        Alcotest.test_case "clean and deterministic" `Slow
          test_search_clean_and_deterministic;
        Alcotest.test_case "POR smaller and sound" `Slow
          test_search_por_sound_and_smaller;
        Alcotest.test_case "fault placements" `Quick test_placements;
      ] );
    ( "mc.cex",
      [
        Alcotest.test_case "mutation found, .scn reproduces" `Slow
          test_mutation_found_and_cex_reproduces;
        Alcotest.test_case "liveness monitor rules" `Quick
          test_liveness_monitor_rules;
      ] );
  ]
