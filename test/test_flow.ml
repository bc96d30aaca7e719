(* Tests for the flow-control layer ({!Bftflow}): the adaptive batch
   planner, the bounded-admission gate, deterministic client backoff,
   and the cluster behaviours they combine into — flash-crowd shedding
   under an admission budget — plus a cluster serving a kvstore. *)

open Dessim

(* ------------------------------------------------------------------ *)
(* Batcher                                                            *)
(* ------------------------------------------------------------------ *)

let test_batcher_idle_keeps_config () =
  let b = Bftflow.Batcher.make ~batch_size:64 ~batch_delay:(Time.ms 1) () in
  let size, delay = Bftflow.Batcher.plan b ~backlog:Time.zero ~depth:0 in
  Alcotest.(check int) "idle size" 64 size;
  Alcotest.(check int) "idle delay" (Time.ms 1) delay

let test_batcher_monotone_and_bounded () =
  let growth = 4 and batch_size = 64 in
  let b =
    Bftflow.Batcher.make ~growth ~min_delay:(Time.us 100) ~batch_size
      ~batch_delay:(Time.ms 1) ()
  in
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

let test_admission_budget_and_release () =
  let a = Bftflow.Admission.create ~budget:2 ~retry_base:(Time.ms 10) in
  Alcotest.(check bool) "enabled" true (Bftflow.Admission.enabled a);
  let ok r = match r with Ok () -> true | Error _ -> false in
  Alcotest.(check bool) "first" true (ok (Bftflow.Admission.admit a ~backlog:Time.zero));
  Alcotest.(check bool) "second" true (ok (Bftflow.Admission.admit a ~backlog:Time.zero));
  Alcotest.(check int) "inflight" 2 (Bftflow.Admission.inflight a);
  (match Bftflow.Admission.admit a ~backlog:(Time.ms 25) with
   | Ok () -> Alcotest.fail "third admit should shed"
   | Error hint ->
     (* The hint is the larger of retry_base and the probed backlog. *)
     Alcotest.(check int) "hint follows backlog" (Time.ms 25) hint);
  (match Bftflow.Admission.admit a ~backlog:Time.zero with
   | Ok () -> Alcotest.fail "fourth admit should shed"
   | Error hint -> Alcotest.(check int) "hint floored at base" (Time.ms 10) hint);
  Alcotest.(check int) "shed counted" 2 (Bftflow.Admission.shed_total a);
  Bftflow.Admission.release a;
  Alcotest.(check int) "slot returned" 1 (Bftflow.Admission.inflight a);
  Alcotest.(check bool) "admits again" true
    (ok (Bftflow.Admission.admit a ~backlog:Time.zero));
  Alcotest.(check int) "admitted total" 3 (Bftflow.Admission.admitted_total a)

let test_admission_disabled () =
  let a = Bftflow.Admission.create ~budget:0 ~retry_base:(Time.ms 10) in
  Alcotest.(check bool) "disabled" false (Bftflow.Admission.enabled a);
  for _ = 1 to 100 do
    match Bftflow.Admission.admit a ~backlog:(Time.sec 1) with
    | Ok () -> ()
    | Error _ -> Alcotest.fail "disabled gate must admit everything"
  done

(* ------------------------------------------------------------------ *)
(* Backoff                                                            *)
(* ------------------------------------------------------------------ *)

(* Same seed -> byte-identical retry schedule. The backoff stream is
   what keeps admission-gated runs replayable. *)
let test_backoff_determinism () =
  let schedule () =
    let rng = Rng.create 42L in
    let b = Bftflow.Backoff.create ~base:(Time.ms 2) (Rng.split rng) in
    List.init 12 (fun attempt ->
        Bftflow.Backoff.delay b ~attempt ~hint:Time.zero)
  in
  let a = schedule () and b = schedule () in
  Alcotest.(check (list int)) "same seed, same schedule" a b

let test_backoff_growth_cap_and_hint () =
  let rng = Rng.create 7L in
  (* 2 ms doubling reaches the 100 ms cap at attempt 6. *)
  let cap = Bftflow.Backoff.cap in
  Alcotest.(check int) "cap" (Time.ms 100) cap;
  let b = Bftflow.Backoff.create ~base:(Time.ms 2) (Rng.split rng) in
  for attempt = 0 to 14 do
    let d = Bftflow.Backoff.delay b ~attempt ~hint:Time.zero in
    let base_d = min cap (Time.mul_f (Time.ms 2) (Float.pow 2.0 (float_of_int attempt))) in
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
      busy_retry_base = Time.ms 2;
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
        Alcotest.test_case "kvstore agreement" `Quick test_kvstore_agreement;
      ] );
  ]
