(* Tests for the flow-control layer ({!Bftflow}): the adaptive batch
   planner, the bounded-admission gate, deterministic client backoff,
   and the cluster behaviours they combine into — flash-crowd shedding
   under an admission budget — plus a cluster serving a kvstore. *)

open Dessim

(* ------------------------------------------------------------------ *)
(* Batcher                                                            *)
(* ------------------------------------------------------------------ *)

let test_batcher_idle_keeps_config () =
  let b = Bftflow.Batcher.make ~batch_size:64 ~batch_delay:(Time.ms 1) in
  let size, delay = Bftflow.Batcher.plan b ~backlog:Time.zero ~depth:0 in
  Alcotest.(check int) "idle size" 64 size;
  Alcotest.(check int) "idle delay" (Time.ms 1) delay

let test_batcher_monotone_and_bounded () =
  let growth = 4 and batch_size = 64 in
  let b = Bftflow.Batcher.make ~batch_size ~batch_delay:(Time.ms 1) in
  let prev_size = ref 0 and prev_delay = ref max_int in
  for step = 0 to 40 do
    let backlog = Time.mul_f (Time.ms 1) (float_of_int step /. 2.0) in
    let size, delay = Bftflow.Batcher.plan b ~backlog ~depth:(step * 8) in
    Alcotest.(check bool)
      (Printf.sprintf "size within bounds at step %d" step)
      true
      (size >= batch_size && size <= growth * batch_size);
    Alcotest.(check bool)
      (Printf.sprintf "delay floored at step %d" step)
      true
      (delay >= Time.us 100);
    Alcotest.(check bool)
      (Printf.sprintf "size monotone at step %d" step)
      true (size >= !prev_size);
    Alcotest.(check bool)
      (Printf.sprintf "delay monotone at step %d" step)
      true (delay <= !prev_delay);
    prev_size := size;
    prev_delay := delay
  done;
  (* Deep pressure saturates at the growth cap. *)
  let size, delay = Bftflow.Batcher.plan b ~backlog:(Time.sec 1) ~depth:100000 in
  Alcotest.(check int) "saturated size" (growth * batch_size) size;
  Alcotest.(check int) "saturated delay" (Time.us 100) delay

(* ------------------------------------------------------------------ *)
(* Admission gate                                                     *)
(* ------------------------------------------------------------------ *)

let ok r = match r with Ok () -> true | Error _ -> false
let rid n = { Pbftcore.Types.client = 0; rid = n }

let test_admission_budget_and_release () =
  let a = Bftflow.Admission.create ~budget:2 in
  Alcotest.(check bool) "enabled" true (Bftflow.Admission.enabled a);
  Alcotest.(check bool) "first" true (ok (Bftflow.Admission.admit a (rid 1) ~backlog:Time.zero));
  Alcotest.(check bool) "second" true (ok (Bftflow.Admission.admit a (rid 2) ~backlog:Time.zero));
  Alcotest.(check int) "inflight" 2 (Bftflow.Admission.inflight a);
  (match Bftflow.Admission.admit a (rid 3) ~backlog:(Time.ms 25) with
   | Ok () -> Alcotest.fail "third admit should shed"
   | Error hint ->
     (* The hint is the larger of the backoff base and the probed
        backlog. *)
     Alcotest.(check int) "hint follows backlog" (Time.ms 25) hint);
  (match Bftflow.Admission.admit a (rid 4) ~backlog:Time.zero with
   | Ok () -> Alcotest.fail "fourth admit should shed"
   | Error hint -> Alcotest.(check int) "hint floored at base" (Time.ms 10) hint);
  Alcotest.(check int) "shed counted" 2 (Bftflow.Admission.shed_total a);
  Bftflow.Admission.release a (rid 1);
  Alcotest.(check int) "slot returned" 1 (Bftflow.Admission.inflight a);
  Alcotest.(check bool) "admits again" true
    (ok (Bftflow.Admission.admit a (rid 3) ~backlog:Time.zero));
  Alcotest.(check int) "admitted total" 3 (Bftflow.Admission.admitted_total a)

let test_admission_disabled () =
  let a = Bftflow.Admission.create ~budget:0 in
  Alcotest.(check bool) "disabled" false (Bftflow.Admission.enabled a);
  for id = 1 to 100 do
    match Bftflow.Admission.admit a (rid id) ~backlog:(Time.sec 1) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "disabled gate must admit everything"
  done

(* The ledger frees a slot only for an id that holds one: a stray
   release (a drop path for a request the gate never admitted) and a
   second release of the same id leave the other slots alone. *)
let test_admission_ledger () =
  let a = Bftflow.Admission.create ~budget:3 in
  let admit id = ok (Bftflow.Admission.admit a (rid id) ~backlog:Time.zero) in
  Alcotest.(check bool) "admit 1" true (admit 1);
  Alcotest.(check bool) "admit 2" true (admit 2);
  Bftflow.Admission.release a (rid 99);
  Alcotest.(check int) "unknown id is a no-op" 2 (Bftflow.Admission.inflight a);
  Alcotest.(check bool) "unknown id holds nothing" false (Bftflow.Admission.holds a (rid 99));
  Bftflow.Admission.release a (rid 1);
  Bftflow.Admission.release a (rid 1);
  Alcotest.(check int) "double release frees one slot" 1 (Bftflow.Admission.inflight a);
  Alcotest.(check bool) "released id" false (Bftflow.Admission.holds a (rid 1));
  Alcotest.(check bool) "other id still held" true (Bftflow.Admission.holds a (rid 2));
  (* A mix of admits, sheds and releases: [inflight] always counts the
     ids that hold a slot. *)
  let held = ref [ 2 ] in
  for id = 3 to 40 do
    if admit id then held := id :: !held;
    if id mod 3 = 0 then begin
      let victim = id - 1 in
      Bftflow.Admission.release a (rid victim);
      held := List.filter (( <> ) victim) !held
    end;
    Bftflow.Admission.release a (rid (1000 + id));
    Alcotest.(check int)
      (Printf.sprintf "inflight is the held count after id %d" id)
      (List.length !held) (Bftflow.Admission.inflight a);
    List.iter
      (fun h ->
        Alcotest.(check bool) (Printf.sprintf "id %d held" h) true
          (Bftflow.Admission.holds a (rid h)))
      !held
  done;
  Alcotest.(check bool) "some were shed" true (Bftflow.Admission.shed_total a > 0)

(* ------------------------------------------------------------------ *)
(* Backoff                                                            *)
(* ------------------------------------------------------------------ *)

(* Same seed -> byte-identical retry schedule. The backoff stream is
   what keeps admission-gated runs replayable. *)
let test_backoff_determinism () =
  let schedule () =
    let rng = Rng.create 42L in
    let b = Bftflow.Backoff.create (Rng.split rng) in
    List.init 12 (fun attempt ->
        Bftflow.Backoff.delay b ~attempt ~hint:Time.zero)
  in
  let a = schedule () and b = schedule () in
  Alcotest.(check (list int)) "same seed, same schedule" a b

let test_backoff_growth_cap_and_hint () =
  let rng = Rng.create 7L in
  (* 10 ms doubling reaches the 100 ms cap at attempt 4. *)
  let cap = Bftflow.Backoff.cap in
  Alcotest.(check int) "cap" (Time.ms 100) cap;
  Alcotest.(check int) "base" (Time.ms 10) Bftflow.Backoff.base;
  let b = Bftflow.Backoff.create (Rng.split rng) in
  for attempt = 0 to 14 do
    let d = Bftflow.Backoff.delay b ~attempt ~hint:Time.zero in
    let base_d = min cap (Time.mul_f (Time.ms 10) (Float.pow 2.0 (float_of_int attempt))) in
    Alcotest.(check bool)
      (Printf.sprintf "delay >= deterministic part at attempt %d" attempt)
      true (d >= base_d);
    Alcotest.(check bool)
      (Printf.sprintf "delay < 2x cap-limited part at attempt %d" attempt)
      true (d < 2 * base_d)
  done;
  let d = Bftflow.Backoff.delay b ~attempt:0 ~hint:(Time.sec 3) in
  Alcotest.(check bool) "server hint is a floor" true (d >= Time.sec 3)

(* ------------------------------------------------------------------ *)
(* Cluster: flash crowd against the admission gate                    *)
(* ------------------------------------------------------------------ *)

let mk_params ?(f = 1) () = Rbft.Params.default ~f

(* A burst far past the admission budget: the gate must shed (BUSY
   replies, client retries), nothing may be lost (every request
   completes once the crowd drains), and the auditor must see zero
   safety violations. *)
let test_flash_crowd_sheds_and_recovers () =
  let p = Bftmetrics.Probe.create () in
  let auditor = Bftaudit.Auditor.attach ~probe:p ~raise_on_violation:false ~n:4 ~f:1 () in
  let params =
    { (mk_params ()) with
      Rbft.Params.admission_budget = 8;
      adaptive_batching = true }
  in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:6 params in
  Array.iter
    (fun c -> Rbft.Client.send_burst c ~count:40)
    (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.sec 4);
  let busy, retries =
    Array.fold_left
      (fun (b, r) c -> (b + Rbft.Client.busy_replies c, r + Rbft.Client.retries c))
      (0, 0) (Rbft.Cluster.clients cluster)
  in
  let shed =
    Array.fold_left
      (fun acc node -> acc + Rbft.Node.admission_shed node)
      0 (Rbft.Cluster.nodes cluster)
  in
  Alcotest.(check bool) "gate shed some of the crowd" true (shed > 0);
  Alcotest.(check bool) "clients saw BUSY" true (busy > 0);
  Alcotest.(check bool) "clients retried" true (retries > 0);
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d completed everything" (Rbft.Client.id c))
        (Rbft.Client.sent c) (Rbft.Client.completed c))
    (Rbft.Cluster.clients cluster);
  Array.iter
    (fun node ->
      Alcotest.(check int)
        (Printf.sprintf "node %d released every slot" (Rbft.Node.id node))
        0
        (Rbft.Node.admission_inflight node))
    (Rbft.Cluster.nodes cluster);
  Alcotest.(check bool) "agreement" true (Rbft.Cluster.agreement_ok cluster ~faulty:[]);
  Alcotest.(check int) "no auditor violations" 0
    (List.length (Bftaudit.Auditor.violations auditor));
  Bftaudit.Auditor.detach auditor

(* Gate off (budget 0): no BUSY traffic, no retries, no watchdog — the
   flow-control layer must be invisible until enabled. *)
let test_gate_off_is_silent () =
  let p = Bftmetrics.Probe.create () in
  let cluster = Rbft.Cluster.create ~probe:p ~clients:4 (mk_params ()) in
  Array.iter
    (fun c -> Rbft.Client.send_burst c ~count:30)
    (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.sec 3);
  Array.iter
    (fun c ->
      Alcotest.(check int) "no busy" 0 (Rbft.Client.busy_replies c);
      Alcotest.(check int) "no retries" 0 (Rbft.Client.retries c);
      Alcotest.(check int) "all completed" (Rbft.Client.sent c)
        (Rbft.Client.completed c))
    (Rbft.Cluster.clients cluster)

(* A flow-controlled cluster driven past its admission budget, so
   clients see BUSY and retry: once the load stops and no client has a
   request pending, no retransmission may stay queued. A completed
   request cancels its watchdog and every backoff retry still to fire,
   and cancelled events leave the engine's heap at once, so after a
   short drain for the last replies in flight the loaded cluster
   queues exactly what a cluster that never saw a request queues at
   the same instant. *)
let test_completed_requests_leave_no_retransmission () =
  let params =
    { (mk_params ()) with
      Rbft.Params.admission_budget = 8;
      adaptive_batching = true }
  in
  let cluster = Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients:6 params in
  let clients = Rbft.Cluster.clients cluster in
  Array.iter (fun c -> Rbft.Client.send_burst c ~count:40) clients;
  let engine = Rbft.Cluster.engine cluster in
  let pending () = Array.fold_left (fun acc c -> acc + Rbft.Client.pending_count c) 0 clients in
  while pending () > 0 && Engine.now engine < Time.sec 4 do
    Rbft.Cluster.run_for cluster (Time.ms 1)
  done;
  Alcotest.(check int) "no client has a request pending" 0 (pending ());
  Alcotest.(check bool) "clients retried" true
    (Array.exists (fun c -> Rbft.Client.retries c > 0) clients);
  Rbft.Cluster.run_for cluster (Time.ms 5);
  let idle = Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~clients:6 params in
  Rbft.Cluster.run_for idle (Engine.now engine);
  Alcotest.(check int) "no retransmission left queued"
    (Engine.queue_size (Rbft.Cluster.engine idle))
    (Engine.queue_size engine)

(* ------------------------------------------------------------------ *)
(* Cluster: kvstore execution                                         *)
(* ------------------------------------------------------------------ *)

(* An RBFT cluster serving a kvstore: every write completes and all
   nodes agree on the executed sequence. *)
let test_kvstore_agreement () =
  let cluster =
    Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ())
      ~service:(fun () -> Bftapp.Kvstore.service (Bftapp.Kvstore.create ()))
      ~clients:4 (mk_params ())
  in
  Array.iter
    (fun c ->
      let id = Rbft.Client.id c in
      (Rbft.Client.behaviour c).Rbft.Client.make_op <-
        Some
          (fun rid ->
            Bftapp.Kvstore.encode_op
              (Bftapp.Kvstore.Put
                 (Printf.sprintf "c%d-k%d" id (rid mod 7), string_of_int rid))))
    (Rbft.Cluster.clients cluster);
  Array.iter (fun c -> Rbft.Client.set_rate c 400.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.sec 1);
  Array.iter (fun c -> Rbft.Client.set_rate c 0.0) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.sec 1);
  Array.iter
    (fun c ->
      Alcotest.(check int)
        (Printf.sprintf "client %d completed" (Rbft.Client.id c))
        (Rbft.Client.sent c) (Rbft.Client.completed c))
    (Rbft.Cluster.clients cluster);
  Alcotest.(check bool) "sent something" true
    (Rbft.Client.sent (Rbft.Cluster.client cluster 0) > 0);
  Alcotest.(check bool) "agreement" true
    (Rbft.Cluster.agreement_ok cluster ~faulty:[])

let suites =
  [
    ( "flow.batcher",
      [
        Alcotest.test_case "idle keeps config" `Quick test_batcher_idle_keeps_config;
        Alcotest.test_case "monotone and bounded" `Quick
          test_batcher_monotone_and_bounded;
      ] );
    ( "flow.admission",
      [
        Alcotest.test_case "budget and release" `Quick
          test_admission_budget_and_release;
        Alcotest.test_case "disabled gate" `Quick test_admission_disabled;
        Alcotest.test_case "ledger" `Quick test_admission_ledger;
      ] );
    ( "flow.backoff",
      [
        Alcotest.test_case "determinism" `Quick test_backoff_determinism;
        Alcotest.test_case "growth, cap, hint" `Quick
          test_backoff_growth_cap_and_hint;
      ] );
    ( "flow.cluster",
      [
        Alcotest.test_case "flash crowd sheds and recovers" `Quick
          test_flash_crowd_sheds_and_recovers;
        Alcotest.test_case "gate off is silent" `Quick test_gate_off_is_silent;
        Alcotest.test_case "completed requests leave no retransmission" `Quick
          test_completed_requests_leave_no_retransmission;
        Alcotest.test_case "kvstore agreement" `Quick test_kvstore_agreement;
      ] );
  ]
