(* Tests for bftdoctor: flight recorder, anomaly triggers, incident
   bundles and forensics.

   - ring ({!Bftmetrics.Ring}): capacity, ordering, wraparound
   - triggers: edge debounce/cooldown, level arming/disarming
   - recorder: rings fed from the bus and the span-close
     subscription, sim-time watermarks, detach unsubscribes
   - synthetic trigger scenarios on a bare engine: instance change,
     liveness stall, sequencer stall, Δ-ratio near miss, incident cap
   - bundles: write/load round trip, chained-digest verification,
     tamper detection, determinism
   - forged incidents on a live RBFT cluster: worst1 flooding must
     produce a bundle whose analysis attributes the attacking node,
     with a same-seed-identical digest; worst2's Δ near miss must be
     attributed to the throttling master primary *)

open Dessim
module Ring = Bftmetrics.Ring
module Trigger = Bftdoctor.Trigger
module Recorder = Bftdoctor.Recorder
module Bundle = Bftdoctor.Bundle
module Analyze = Bftdoctor.Analyze
module Doctor = Bftdoctor.Doctor
module Jmini = Bftdoctor.Jmini

let tmp_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "bftdoctor-test-%d-%s-%d" (Unix.getpid ()) name !counter)
    in
    dir

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

(* ------------------------------------------------------------------ *)
(* Ring                                                               *)
(* ------------------------------------------------------------------ *)

let test_ring () =
  let r = Ring.create 3 in
  Alcotest.(check (list int)) "empty" [] (Ring.to_list r);
  Ring.push r 1;
  Ring.push r 2;
  Alcotest.(check (list int)) "partial, oldest first" [ 1; 2 ] (Ring.to_list r);
  Ring.push r 3;
  Ring.push r 4;
  Alcotest.(check (list int)) "wraparound keeps newest" [ 2; 3; 4 ]
    (Ring.to_list r);
  Alcotest.(check int) "length is capacity" 3 (Ring.length r);
  Alcotest.(check int) "pushed counts everything" 4 (Ring.pushed r);
  Ring.clear r;
  Alcotest.(check (list int)) "cleared" [] (Ring.to_list r);
  Alcotest.(check int) "clear resets pushed" 0 (Ring.pushed r)

(* ------------------------------------------------------------------ *)
(* Triggers                                                           *)
(* ------------------------------------------------------------------ *)

let fire_names = function None -> "-" | Some (f : Trigger.fire) -> f.Trigger.name

let test_trigger_edge_cooldown () =
  let t = Trigger.make (Trigger.spec Trigger.Instance_change ~cooldown:(Time.ms 100)) in
  (* debounce 0: first occurrence fires at once *)
  Alcotest.(check string) "first edge fires" "instance-change"
    (fire_names (Trigger.edge t ~now:(Time.ms 10) ~reason:"a"));
  (* inside the cooldown window: discarded *)
  Alcotest.(check string) "cooldown discards" "-"
    (fire_names (Trigger.edge t ~now:(Time.ms 50) ~reason:"b"));
  Alcotest.(check string) "still in cooldown" "-"
    (fire_names (Trigger.edge t ~now:(Time.ms 109) ~reason:"c"));
  (* past the cooldown: fires again *)
  Alcotest.(check string) "fires after cooldown" "instance-change"
    (fire_names (Trigger.edge t ~now:(Time.ms 111) ~reason:"d"));
  Alcotest.(check int) "two fires total" 2 (Trigger.fires t)

let test_trigger_edge_debounce () =
  let t =
    Trigger.make
      (Trigger.spec Trigger.Auditor_violation ~debounce:(Time.ms 50)
         ~cooldown:(Time.ms 200))
  in
  (* occurrence arms but does not fire *)
  Alcotest.(check string) "arming edge silent" "-"
    (fire_names (Trigger.edge t ~now:(Time.ms 10) ~reason:"armed"));
  Alcotest.(check bool) "armed" true (Trigger.armed t);
  (* a ripen tick before the debounce elapses stays silent *)
  Alcotest.(check string) "early ripen silent" "-"
    (fire_names (Trigger.ripen t ~now:(Time.ms 40)));
  (* ripen past the debounce fires with the armed reason *)
  (match Trigger.ripen t ~now:(Time.ms 61) with
  | Some f ->
    Alcotest.(check string) "reason preserved" "armed" f.Trigger.reason;
    Alcotest.(check bool) "fire instant is the ripen tick" true
      (f.Trigger.at = Time.ms 61)
  | None -> Alcotest.fail "debounced edge did not fire");
  Alcotest.(check bool) "disarmed after fire" false (Trigger.armed t)

let test_trigger_level () =
  let t =
    Trigger.make
      (Trigger.spec
         (Trigger.Liveness_stall { idle = Time.ms 10 })
         ~debounce:(Time.ms 30) ~cooldown:(Time.ms 100))
  in
  let level now cond =
    fire_names (Trigger.level t ~now ~cond ~reason:"stall")
  in
  Alcotest.(check string) "false stays silent" "-" (level (Time.ms 10) false);
  Alcotest.(check string) "true arms" "-" (level (Time.ms 20) true);
  (* condition dropped: disarm, the clock restarts *)
  Alcotest.(check string) "false disarms" "-" (level (Time.ms 30) false);
  Alcotest.(check string) "re-arm" "-" (level (Time.ms 40) true);
  Alcotest.(check string) "held but debounce not elapsed" "-"
    (level (Time.ms 60) true);
  Alcotest.(check string) "held through debounce fires" "liveness-stall"
    (level (Time.ms 71) true);
  (* still true inside cooldown: no second fire *)
  Alcotest.(check string) "cooldown suppresses" "-" (level (Time.ms 120) true)

(* ------------------------------------------------------------------ *)
(* Recorder on a bare engine                                          *)
(* ------------------------------------------------------------------ *)

let with_recorder f =
  let p = Bftmetrics.Probe.create () in
  let engine = Engine.create () in
  let r = Recorder.attach p engine in
  Fun.protect ~finally:(fun () -> Recorder.detach r) (fun () -> f p engine r)

let test_recorder_rings () =
  with_recorder (fun p engine r ->
      (* two events more than the audit ring holds *)
      let n = Recorder.audit_cap + 2 in
      for i = 1 to n do
        ignore
          (Engine.at engine (Time.us i) (fun () ->
               Bftmetrics.Probe.emit_at p (Time.us i) ~node:i ~instance:0
                 (Bftmetrics.Event.Executed
                    { client = 0; rid = i; digest = "d" })))
      done;
      Engine.run ~until:(Time.ms 10) engine;
      let nodes =
        List.map (fun (e : Bftmetrics.Event.t) -> e.Bftmetrics.Event.node)
          (Recorder.audit_events r)
      in
      Alcotest.(check (list int))
        (Printf.sprintf "ring keeps newest %d, oldest first" Recorder.audit_cap)
        (List.init Recorder.audit_cap (fun i -> i + 3))
        nodes;
      Alcotest.(check int) "events_seen counts all" n (Recorder.events_seen r);
      Alcotest.(check int) "executed watermark" n (Recorder.executed r);
      Alcotest.(check bool) "last_exec advanced" true
        (Recorder.last_exec r = Time.us n))

let test_recorder_span_ring () =
  let attached = ref None in
  with_recorder (fun p _engine r ->
          attached := Some (p, r);
          Bftmetrics.Probe.enable_spans p;
          (* spans closed through the span-close subscription land in
             the span ring *)
          for rid = 1 to 3 do
            let id =
              Bftmetrics.Probe.request_root p ~client:0 ~rid (Time.ms rid)
            in
            Bftmetrics.Probe.finish p id ~t1:(Time.ms (rid + 10))
          done;
          Alcotest.(check int) "spans recorded" 3
            (List.length (Recorder.spans r));
          Alcotest.(check int) "spans_seen" 3 (Recorder.spans_seen r));
  (* Detached: a span closed afterwards reaches no recorder ring. *)
  let p, r = Option.get !attached in
  let id =
    Bftmetrics.Probe.request_root p ~client:0 ~rid:4 (Time.ms 4)
  in
  Bftmetrics.Probe.finish p id ~t1:(Time.ms 14);
  Alcotest.(check int) "span closed after detach" 4 (Bftmetrics.Probe.span_count p);
  Alcotest.(check int) "close subscription removed: spans" 3
    (List.length (Recorder.spans r))

(* ------------------------------------------------------------------ *)
(* Synthetic trigger scenarios                                        *)
(* ------------------------------------------------------------------ *)

let config ?dir triggers =
  {
    Doctor.dir;
    seed = 7L;
    config_fields = [];
    context = None;
    scenario = None;
    triggers;
  }

let instance_change_trigger =
  Trigger.spec Trigger.Instance_change ~cooldown:(Time.sec 1)

let with_doctor ?(triggers = [ instance_change_trigger ]) f =
  let p = Bftmetrics.Probe.create () in
  let engine = Engine.create () in
  let d = Doctor.attach (config triggers) p engine in
  Fun.protect ~finally:(fun () -> Doctor.detach d) (fun () -> f p engine d)

let trigger_names d =
  List.map (fun (i : Doctor.incident_ref) -> i.Doctor.i_trigger)
    (Doctor.incidents d)

let test_doctor_instance_change () =
  with_doctor (fun p engine d ->
      ignore
        (Engine.at engine (Time.ms 42) (fun () ->
             Bftmetrics.Probe.emit_at p (Time.ms 42) ~node:1 ~instance:0
               (Bftmetrics.Event.Instance_changed { cpi = 1; recovery = false })));
      Engine.run ~until:(Time.ms 50) engine;
      Alcotest.(check (list string)) "one instance-change incident"
        [ "instance-change" ] (trigger_names d);
      match Doctor.incidents d with
      | [ i ] ->
        Alcotest.(check bool) "fired at the event instant" true
          (i.Doctor.i_at = Time.ms 42);
        Alcotest.(check bool) "in-memory incident has a digest" true
          (String.length i.Doctor.i_digest = 64)
      | _ -> Alcotest.fail "expected exactly one incident")

let test_doctor_recovery_rotation_ignored () =
  with_doctor (fun p engine d ->
      ignore
        (Engine.at engine (Time.ms 10) (fun () ->
             Bftmetrics.Probe.emit_at p (Time.ms 10) ~node:1 ~instance:0
               (Bftmetrics.Event.Instance_changed { cpi = 1; recovery = true })));
      Engine.run ~until:(Time.ms 20) engine;
      Alcotest.(check (list string)) "recovery rotations do not fire" []
        (trigger_names d))

let test_doctor_liveness_stall () =
  let triggers =
    [
      Trigger.spec (Trigger.Liveness_stall { idle = Time.ms 300 })
        ~cooldown:(Time.sec 10);
    ]
  in
  with_doctor ~triggers (fun p engine d ->
      (* a request arrives and is never executed *)
      ignore
        (Engine.at engine (Time.ms 50) (fun () ->
             Bftmetrics.Probe.emit_at p (Time.ms 50) ~node:0 ~instance:(-1)
               (Bftmetrics.Event.Request_received
                  { client = 0; rid = 1; size = 8 })));
      Engine.run ~until:(Time.ms 250) engine;
      Alcotest.(check (list string)) "not yet idle long enough" []
        (trigger_names d);
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "stall fires once" [ "liveness-stall" ]
        (trigger_names d))

let test_doctor_no_stall_when_quiescent () =
  let triggers =
    [
      Trigger.spec (Trigger.Liveness_stall { idle = Time.ms 300 })
        ~cooldown:(Time.sec 10);
    ]
  in
  with_doctor ~triggers (fun p engine d ->
      (* request arrives and IS executed: idle afterwards is fine *)
      ignore
        (Engine.at engine (Time.ms 50) (fun () ->
             Bftmetrics.Probe.emit_at p (Time.ms 50) ~node:0 ~instance:(-1)
               (Bftmetrics.Event.Request_received
                  { client = 0; rid = 1; size = 8 });
             Bftmetrics.Probe.emit_at p (Time.ms 50) ~node:0 ~instance:0
               (Bftmetrics.Event.Executed { client = 0; rid = 1; digest = "d" })));
      Engine.run ~until:(Time.sec 2) engine;
      Alcotest.(check (list string)) "quiescence is not a stall" []
        (trigger_names d))

let test_doctor_delta_ratio_near () =
  let triggers =
    [
      Trigger.spec
        (Trigger.Delta_ratio_near { delta = 0.95 })
        ~debounce:(Time.ms 250) ~cooldown:(Time.sec 10);
    ]
  in
  let emit_verdict p engine at master backup =
    ignore
      (Engine.at engine at (fun () ->
           Bftmetrics.Probe.emit_at p at ~node:0 ~instance:(-1)
             (Bftmetrics.Event.Monitor_verdict
                {
                  master_rate = master;
                  backup_rate = backup;
                  suspicious = master < 0.95 *. backup;
                })))
  in
  (* healthy master (ratio 1.0): never fires *)
  with_doctor ~triggers (fun p engine d ->
      for i = 1 to 8 do
        emit_verdict p engine (Time.ms (100 * i)) 1000.0 1000.0
      done;
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "healthy ratio never arms" []
        (trigger_names d));
  (* skirting master (ratio 0.96, above delta, inside epsilon): fires *)
  with_doctor ~triggers (fun p engine d ->
      for i = 1 to 8 do
        emit_verdict p engine (Time.ms (100 * i)) 960.0 1000.0
      done;
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "Δ-envelope skirting fires"
        [ "delta-ratio-near" ] (trigger_names d));
  (* suspicious verdicts (ratio below delta) belong to instance change,
     not the near-miss trigger *)
  with_doctor ~triggers (fun p engine d ->
      for i = 1 to 8 do
        emit_verdict p engine (Time.ms (100 * i)) 500.0 1000.0
      done;
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "suspicious is not a near miss" []
        (trigger_names d))

let test_doctor_seq_stall () =
  let triggers =
    [
      Trigger.spec (Trigger.Seq_stall { age = Time.ms 125 })
        ~cooldown:(Time.sec 10);
    ]
  in
  let emit_sample p engine at ~waiting_on ~age =
    ignore
      (Engine.at engine at (fun () ->
           Bftmetrics.Probe.emit_at p at ~node:2 ~instance:(-1)
             (Bftmetrics.Event.Seq_stall { waiting_on; age; pending = 7 })))
  in
  (* an un-stalled merge (waiting_on = -1) never fires *)
  with_doctor ~triggers (fun p engine d ->
      for i = 1 to 8 do
        emit_sample p engine (Time.ms (100 * i)) ~waiting_on:(-1) ~age:Time.zero
      done;
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "flowing merge never arms" []
        (trigger_names d));
  (* a young stall stays below the bound *)
  with_doctor ~triggers (fun p engine d ->
      for i = 1 to 8 do
        emit_sample p engine (Time.ms (100 * i)) ~waiting_on:1 ~age:(Time.ms 50)
      done;
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "young stall stays silent" []
        (trigger_names d));
  (* a head-of-line stall past the bound fires once *)
  with_doctor ~triggers (fun p engine d ->
      emit_sample p engine (Time.ms 100) ~waiting_on:1 ~age:(Time.ms 40);
      emit_sample p engine (Time.ms 200) ~waiting_on:1 ~age:(Time.ms 140);
      Engine.run ~until:(Time.sec 1) engine;
      Alcotest.(check (list string)) "head-of-line stall fires"
        [ "seq-stall" ] (trigger_names d))

let test_doctor_max_incidents () =
  let triggers =
    [ Trigger.spec Trigger.Instance_change ~cooldown:(Time.ms 1) ]
  in
  let p = Bftmetrics.Probe.create () in
  let engine = Engine.create () in
  let d = Doctor.attach (config triggers) p engine in
  let fires = Doctor.max_incidents + 3 in
  Fun.protect
    ~finally:(fun () -> Doctor.detach d)
    (fun () ->
      for i = 1 to fires do
        ignore
          (Engine.at engine (Time.ms (10 * i)) (fun () ->
               Bftmetrics.Probe.emit_at p
                 (Time.ms (10 * i))
                 ~node:1 ~instance:0
                 (Bftmetrics.Event.Instance_changed { cpi = i; recovery = false })))
      done;
      Engine.run ~until:(Time.ms (10 * (fires + 1))) engine;
      Alcotest.(check int) "capped at max_incidents" Doctor.max_incidents
        (List.length (Doctor.incidents d));
      Alcotest.(check int) "suppressed fires counted" 3
        (Doctor.fires_suppressed d))

(* ------------------------------------------------------------------ *)
(* Bundles                                                            *)
(* ------------------------------------------------------------------ *)

let synthetic_incident () =
  {
    Bundle.trigger = "instance-change";
    fired_at = Time.ms 123;
    reason = "test incident";
    seed = 42L;
    config = [ ("protocol", "rbft"); ("f", "1"); ("master_primary", "0") ];
    scenario = Some "(scenario (name test))";
    events =
      [
        {
          Bftmetrics.Event.time = Time.ms 100;
          node = 1;
          instance = 0;
          kind = Bftmetrics.Event.Instance_changed { cpi = 1; recovery = false };
        };
      ];
    spans = [];
    snapshots =
      [
        {
          Recorder.m_time = Time.ms 90;
          m_samples =
            [
              {
                Bftmetrics.Registry.s_name = "bft_net_messages_total";
                s_labels = [ ("channel", "node-node") ];
                s_value = Bftmetrics.Registry.Counter_v 17;
              };
            ];
        };
      ];
    footprint =
      [
        {
          Bftcap.Footprint.r_name = "node.requests";
          r_owner = "node-1";
          r_entries = 12;
          r_peak = 15;
          r_bytes = 0;
        };
      ];
  }

let test_bundle_roundtrip () =
  let dir = tmp_dir "roundtrip" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let inc = synthetic_incident () in
      let digest = Bundle.write ~dir inc in
      Alcotest.(check string) "digest is deterministic" digest
        (Bundle.digest inc);
      (match Bundle.verify ~dir with
      | Ok d -> Alcotest.(check string) "on-disk digest matches" digest d
      | Error e -> Alcotest.fail ("verify failed: " ^ e));
      let l = Bundle.load ~dir in
      Alcotest.(check string) "trigger" "instance-change" l.Bundle.l_trigger;
      Alcotest.(check string) "seed survives as string" "42" l.Bundle.l_seed;
      Alcotest.(check string) "digest recorded in manifest" digest
        l.Bundle.l_digest;
      Alcotest.(check bool) "fired_at" true (l.Bundle.l_fired = Time.ms 123);
      Alcotest.(check (option string)) "scenario text preserved"
        (Some "(scenario (name test))") l.Bundle.l_scenario;
      Alcotest.(check int) "one event" 1 (List.length l.Bundle.l_events);
      (match l.Bundle.l_events with
      | [ e ] ->
        Alcotest.(check string) "event kind" "instance-changed"
          e.Bundle.e_kind;
        Alcotest.(check int) "event node" 1 e.Bundle.e_node
      | _ -> Alcotest.fail "events");
      Alcotest.(check int) "one snapshot" 1 (List.length l.Bundle.l_snapshots);
      match l.Bundle.l_snapshots with
      | [ (t, snap) ] ->
        Alcotest.(check bool) "snapshot time" true (t = Time.ms 90);
        (match Bundle.samples_of_snapshot snap with
        | [ ("bft_net_messages_total", [ ("channel", "node-node") ], v) ] ->
          Alcotest.(check (float 0.0)) "counter value" 17.0 v
        | other ->
          Alcotest.failf "unexpected samples (%d)" (List.length other))
      | _ -> Alcotest.fail "snapshots")

let test_bundle_tamper_detection () =
  let dir = tmp_dir "tamper" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      ignore (Bundle.write ~dir (synthetic_incident ()));
      (* doctoring the audit log must break the chained digest *)
      let path = Filename.concat dir "audit.jsonl" in
      let oc = open_out_gen [ Open_append ] 0o644 path in
      output_string oc
        "{\"ts\":1,\"node\":9,\"instance\":0,\"kind\":\"executed\",\"client\":0,\"rid\":9,\"digest\":\"x\"}\n";
      close_out oc;
      match Bundle.verify ~dir with
      | Ok _ -> Alcotest.fail "tampered bundle verified"
      | Error e ->
        Alcotest.(check bool) "error names the digest" true
          (contains (String.lowercase_ascii e) "digest"))

(* ------------------------------------------------------------------ *)
(* Forged incident: worst1 flooding on a live cluster                 *)
(* ------------------------------------------------------------------ *)

let run_worst1 ~dir ~seed =
  (* Each run has a probe of its own, so the second run's metrics
     snapshots cannot inherit the first run's counters. *)
  let probe = Bftmetrics.Probe.create () in
  Bftmetrics.Probe.set_metrics probe true;
  let cluster =
    Rbft.Cluster.create ~probe ~seed ~clients:4 ~payload_size:8
      (Rbft.Params.default ~f:1)
  in
  let d = Bftharness.Incident.attach ~dir cluster in
  Fun.protect
    ~finally:(fun () -> Doctor.detach d)
    (fun () ->
      Rbft.Attacks.worst_attack_1 cluster;
      Array.iter
        (fun c -> Rbft.Client.set_rate c 400.0)
        (Rbft.Cluster.clients cluster);
      Rbft.Cluster.run_for cluster (Time.of_sec_f 0.6);
      Doctor.incidents d)

let test_forged_incident_worst1 () =
  let dir = tmp_dir "worst1" in
  let dir2 = tmp_dir "worst1-replay" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf dir2)
    (fun () ->
      let incidents = run_worst1 ~dir ~seed:42L in
      Alcotest.(check bool) "at least one incident" true (incidents <> []);
      let first = List.hd incidents in
      Alcotest.(check string) "nic-closure trigger" "nic-closure"
        first.Doctor.i_trigger;
      let bundle_dir = Option.get first.Doctor.i_dir in
      (match Bundle.verify ~dir:bundle_dir with
      | Ok _ -> ()
      | Error e -> Alcotest.fail ("bundle failed verification: " ^ e));
      let l = Bundle.load ~dir:bundle_dir in
      let v = Analyze.attribute l in
      (* worst1 at f=1: the flooding node is node 3 (n-1). *)
      Alcotest.(check string) "cause" "flooding" v.Analyze.cause;
      Alcotest.(check (option int)) "culprit is the attacking node" (Some 3)
        v.Analyze.culprit_node;
      Alcotest.(check string) "high confidence" "high" v.Analyze.confidence;
      let report = Analyze.report l in
      Alcotest.(check bool) "report names the attacker" true
        (contains report "node 3");
      (* config fields make the bundle self-describing *)
      Alcotest.(check (option string)) "protocol recorded" (Some "rbft")
        (List.assoc_opt "protocol" l.Bundle.l_config);
      Alcotest.(check (option string)) "master primary recorded" (Some "0")
        (List.assoc_opt "master_primary" l.Bundle.l_config);
      (* same-seed replay: byte-identical bundle, identical digest *)
      let replay = run_worst1 ~dir:dir2 ~seed:42L in
      let second = List.hd replay in
      Alcotest.(check string) "same-seed digest identical"
        first.Doctor.i_digest second.Doctor.i_digest)

(* worst2 with the CLI's set-up (`rbft_sim run --attack worst2
   --doctor`: 10 clients x 2,000 req/s, seed 42): the master primary
   throttles to just above Δ, so at 1.1 s the near-miss trigger fires
   before any instance change. At this load the audit ring holds no
   monitor verdict; the metrics snapshot carries the ratio. *)
let test_forged_incident_worst2 () =
  let dir = tmp_dir "worst2" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let cluster =
        Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~seed:42L
          ~clients:10 ~payload_size:8 (Rbft.Params.default ~f:1)
      in
      let d = Bftharness.Incident.attach ~dir cluster in
      let incidents =
        Fun.protect
          ~finally:(fun () -> Doctor.detach d)
          (fun () ->
            Rbft.Attacks.worst_attack_2 cluster;
            Array.iter
              (fun c -> Rbft.Client.set_rate c 2000.0)
              (Rbft.Cluster.clients cluster);
            Rbft.Cluster.run_for cluster (Time.of_sec_f 1.2);
            Doctor.incidents d)
      in
      match
        List.find_opt
          (fun (i : Doctor.incident_ref) -> i.Doctor.i_trigger = "delta-ratio-near")
          incidents
      with
      | None -> Alcotest.fail "no delta-ratio-near incident"
      | Some i ->
        let l = Bundle.load ~dir:(Option.get i.Doctor.i_dir) in
        let v = Analyze.attribute l in
        Alcotest.(check string) "cause" "delta-envelope" v.Analyze.cause;
        Alcotest.(check (option int)) "culprit is the master primary" (Some 0)
          v.Analyze.culprit_node;
        Alcotest.(check (option int)) "culprit is the master instance" (Some 0)
          v.Analyze.culprit_instance)

let test_doctor_force_dump () =
  let dir = tmp_dir "force" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      let engine = Engine.create () in
      let config =
        {
          (config ~dir [ instance_change_trigger ]) with
          Doctor.seed = 9L;
          config_fields = [ ("protocol", "test") ];
        }
      in
      let d = Doctor.attach config (Bftmetrics.Probe.create ()) engine in
      Fun.protect
        ~finally:(fun () -> Doctor.detach d)
        (fun () ->
          Engine.run ~until:(Time.ms 5) engine;
          Doctor.force d ~reason:"manual";
          match Doctor.incidents d with
          | [ i ] ->
            Alcotest.(check string) "forced trigger name" "forced"
              i.Doctor.i_trigger;
            let bdir = Option.get i.Doctor.i_dir in
            (match Bundle.verify ~dir:bdir with
            | Ok d' ->
              Alcotest.(check string) "digest matches disk" i.Doctor.i_digest d'
            | Error e -> Alcotest.fail e)
          | _ -> Alcotest.fail "expected one forced incident"))

(* ------------------------------------------------------------------ *)
(* Chaos runner integration                                           *)
(* ------------------------------------------------------------------ *)

let test_runner_doctor_bundle () =
  let dir = tmp_dir "chaos" in
  Fun.protect
    ~finally:(fun () -> rm_rf dir)
    (fun () ->
      (* a partition that outlives the runner's liveness-stall idle
         threshold (0.8s) must leave at least one bundle behind *)
      let s =
        {
          Bftchaos.Scenario.name = "doctor-partition";
          protocol = Flavour.Rbft;
          f = 1;
          seed = 11L;
          duration = Time.of_sec_f 1.5;
          drain = Time.of_sec_f 0.5;
          workload = { Bftchaos.Scenario.clients = 2; rate = 200.0; payload = 8 };
          faults =
            [
              {
                Bftchaos.Fault.at = Time.ms 100;
                until = Time.sec 10;
                kind = Bftchaos.Fault.Partition { group = [ 1; 2 ] };
              };
            ];
          lambda = Time.zero;
          mutation = None;
        }
      in
      let r = Bftchaos.Runner.run ~doctor_dir:dir s in
      Alcotest.(check bool) "doctor dumped at least one bundle" true
        (r.Bftchaos.Runner.incidents <> []);
      let i = List.hd r.Bftchaos.Runner.incidents in
      Alcotest.(check string) "the stall trigger fired" "liveness-stall"
        i.Doctor.i_trigger;
      let bdir = Option.get i.Doctor.i_dir in
      let l = Bundle.load ~dir:bdir in
      (* the active scenario rides in the bundle and round-trips *)
      match l.Bundle.l_scenario with
      | None -> Alcotest.fail "scenario missing from bundle"
      | Some text ->
        (match Bftchaos.Scenario.of_string text with
        | Ok s' ->
          Alcotest.(check string) "scenario round-trips" s.Bftchaos.Scenario.name
            s'.Bftchaos.Scenario.name
        | Error e -> Alcotest.fail ("scenario does not parse: " ^ e)))

(* ------------------------------------------------------------------ *)
(* Jmini                                                              *)
(* ------------------------------------------------------------------ *)

let test_jmini () =
  let v =
    Jmini.parse
      {|{"a":1,"b":[true,null,"xA"],"c":{"d":-2.5e1},"e":"q\"w"}|}
  in
  Alcotest.(check (option int)) "int" (Some 1) (Jmini.get_int "a" v);
  (match Jmini.mem "b" v with
  | Some (Jmini.Arr [ Jmini.Bool true; Jmini.Null; Jmini.Str s ]) ->
    Alcotest.(check string) "string in array" "xA" s
  | _ -> Alcotest.fail "array shape");
  (match Jmini.mem "c" v with
  | Some c -> Alcotest.(check (option int)) "nested num" (Some (-25)) (Jmini.get_int "d" c)
  | None -> Alcotest.fail "nested object");
  Alcotest.(check (option string)) "escaped quote" (Some {|q"w|})
    (Jmini.get_str "e" v);
  Alcotest.(check bool) "garbage is None" true (Jmini.parse_opt "{" = None);
  (* every audit event serialisation must parse *)
  let ev =
    {
      Bftmetrics.Event.time = Time.ms 3;
      node = 2;
      instance = 1;
      kind = Bftmetrics.Event.Nic_closed { peer = 3; until = Time.ms 500 };
    }
  in
  match Jmini.parse_opt (Bftmetrics.Event.to_json ev) with
  | Some j ->
    Alcotest.(check (option int)) "peer field" (Some 3) (Jmini.get_int "peer" j);
    Alcotest.(check (option string)) "kind field" (Some "nic-closed")
      (Jmini.get_str "kind" j)
  | None -> Alcotest.fail "event JSON does not parse"

let suites =
  [
    ( "doctor.ring",
      [ Alcotest.test_case "ordering and wraparound" `Quick test_ring ] );
    ( "doctor.trigger",
      [
        Alcotest.test_case "edge cooldown" `Quick test_trigger_edge_cooldown;
        Alcotest.test_case "edge debounce" `Quick test_trigger_edge_debounce;
        Alcotest.test_case "level arming" `Quick test_trigger_level;
      ] );
    ( "doctor.recorder",
      [
        Alcotest.test_case "audit ring and watermarks" `Quick
          test_recorder_rings;
        Alcotest.test_case "span ring via close hook" `Quick
          test_recorder_span_ring;
      ] );
    ( "doctor.triggers-live",
      [
        Alcotest.test_case "instance change" `Quick test_doctor_instance_change;
        Alcotest.test_case "recovery rotation ignored" `Quick
          test_doctor_recovery_rotation_ignored;
        Alcotest.test_case "liveness stall" `Quick test_doctor_liveness_stall;
        Alcotest.test_case "quiescence is not a stall" `Quick
          test_doctor_no_stall_when_quiescent;
        Alcotest.test_case "sequencer head-of-line stall" `Quick
          test_doctor_seq_stall;
        Alcotest.test_case "delta ratio near miss" `Quick
          test_doctor_delta_ratio_near;
        Alcotest.test_case "max incidents cap" `Quick test_doctor_max_incidents;
      ] );
    ( "doctor.bundle",
      [
        Alcotest.test_case "write/load round trip" `Quick test_bundle_roundtrip;
        Alcotest.test_case "tamper detection" `Quick
          test_bundle_tamper_detection;
        Alcotest.test_case "force dump" `Quick test_doctor_force_dump;
      ] );
    ( "doctor.forensics",
      [
        Alcotest.test_case "worst1 forged incident" `Quick
          test_forged_incident_worst1;
        Alcotest.test_case "worst2 near miss names the master" `Quick
          test_forged_incident_worst2;
        Alcotest.test_case "chaos runner bundles" `Quick
          test_runner_doctor_bundle;
      ] );
    ("doctor.jmini", [ Alcotest.test_case "parser" `Quick test_jmini ]);
  ]
