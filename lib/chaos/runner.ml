open Dessim

type result = {
  scenario : Scenario.t;
  executed : int;
  sent : int;
  completed : int;
  safety_violations : Bftaudit.Auditor.violation list;
  events_checked : int;
  digest : string option;
  incidents : Bftdoctor.Doctor.incident_ref list;
}

(* A protocol-agnostic view of a freshly built cluster. *)
type sys = {
  hooks : Injector.hooks;
  run_for : Time.t -> unit;
  set_rates : float -> unit;
  totals : unit -> int * int;  (* sent, completed *)
  executed : unit -> int;
  describe : (string * string) list;  (* incident-bundle config fields *)
  context : (unit -> (string * string) list) option;  (* dump-time fields *)
}

let sum_totals sent completed clients =
  Array.fold_left (fun (s, c) cl -> (s + sent cl, c + completed cl)) (0, 0) clients

let sys (type c) (module S : Pbftcore.Cluster_core.STACK with type Cluster.t = c)
    (cluster : c) ~f ~describe ~context =
  let node i = S.Cluster.node cluster i in
  {
    hooks =
      {
        Injector.engine = S.Cluster.engine cluster;
        probe = S.Cluster.probe cluster;
        n = (3 * f) + 1;
        set_fault_hook = Bftnet.Network.set_fault_hook (S.Cluster.network cluster);
        set_cpu_factor = (fun ~node:i k -> S.Node.set_cpu_factor (node i) k);
        set_clock_factor = (fun ~node:i k -> S.Node.set_clock_factor (node i) k);
      };
    run_for = S.Cluster.run_for cluster;
    set_rates =
      (fun r -> Array.iter (fun c -> S.Client.set_rate c r) (S.Cluster.clients cluster));
    totals =
      (fun () -> sum_totals S.Client.sent S.Client.completed (S.Cluster.clients cluster));
    executed = (fun () -> S.Cluster.total_executed cluster);
    describe;
    context;
  }

let build ~probe (s : Scenario.t) =
  let f = s.Scenario.f and seed = s.Scenario.seed in
  let clients = s.Scenario.workload.Scenario.clients
  and payload_size = s.Scenario.workload.Scenario.payload in
  let rbft flavour =
    let tweak p = { p with Rbft.Params.lambda = s.Scenario.lambda } in
    let cluster =
      Flavour.rbft_cluster ~probe ~seed ~tweak ~clients ~payload_size ~f flavour
    in
    if s.Scenario.mutation = Some Scenario.Ic_quorum_low then
      Array.iter
        (fun node -> (Rbft.Node.faults node).Rbft.Node.ic_quorum <- Some 1)
        (Rbft.Cluster.nodes cluster);
    sys (module Rbft) cluster ~f ~describe:(Rbft.Cluster.describe cluster)
      ~context:
        (Some
           (fun () ->
             [ ("master_primary", string_of_int (Rbft.Cluster.master_primary cluster)) ]))
  in
  let baseline name = [ ("protocol", name); ("f", string_of_int f) ] in
  match s.Scenario.protocol with
  | (Flavour.Rbft | Flavour.Rbft_udp | Flavour.Rbft_concurrent) as flavour -> rbft flavour
  | Flavour.Aardvark ->
    (* Aardvark's paper policy times (5 s grace) dwarf a chaos
       scenario; the compressed times let the protocol react within
       the run. *)
    sys (module Aardvark)
      (Aardvark.Cluster.create ~probe ~seed ~clients ~payload_size
         (Aardvark.Node.simulation_config ~f))
      ~f ~describe:(baseline "aardvark") ~context:None
  | Flavour.Spinning ->
    sys (module Spinning)
      (Spinning.Cluster.create ~probe ~seed ~clients ~payload_size
         (Spinning.Node.default_config ~f))
      ~f ~describe:(baseline "spinning") ~context:None
  | Flavour.Prime ->
    sys (module Prime)
      (Prime.Cluster.create ~probe ~seed ~clients ~payload_size (Prime.Node.default_config ~f))
      ~f ~describe:(baseline "prime") ~context:None

(* Triggers for chaos runs: dump on any safety-relevant edge, and on a
   liveness stall well inside the drain bound so the bundle still holds
   the stalled state. *)
let doctor_triggers =
  let open Bftdoctor in
  [
    Trigger.spec Trigger.Instance_change ~cooldown:(Time.sec 1);
    Trigger.spec Trigger.Auditor_violation ~cooldown:(Time.sec 1);
    Trigger.spec
      (Trigger.Liveness_stall { idle = Time.of_sec_f 0.8 })
      ~cooldown:(Time.sec 5);
    (* Only ever samples under rbft-concurrent; inert elsewhere. *)
    Trigger.spec
      (Trigger.Seq_stall { age = Time.ms 125 })
      ~cooldown:(Time.sec 2);
  ]

let run ?(probe = Bftmetrics.Probe.create ()) ?(capture = false) ?doctor_dir
    (s : Scenario.t) =
  (* Chaos faults are benign (crash, partition, message-level chaos):
     no node is Byzantine, so the auditor checks all of them. *)
  let auditor =
    Bftaudit.Auditor.attach ~probe ~raise_on_violation:false ~n:((3 * s.Scenario.f) + 1)
      ~f:s.Scenario.f ()
  in
  let cap = if capture then Some (Bftaudit.Capture.attach probe) else None in
  let sys = build ~probe s in
  let doctor =
    match doctor_dir with
    | None -> None
    | Some dir ->
      let config =
        {
          Bftdoctor.Doctor.dir = Some dir;
          seed = s.Scenario.seed;
          config_fields = ("scenario_name", s.Scenario.name) :: sys.describe;
          context = sys.context;
          scenario = Some (Scenario.to_string s);
          triggers = doctor_triggers;
        }
      in
      Some (Bftdoctor.Doctor.attach config probe sys.hooks.Injector.engine)
  in
  let injector = Injector.install sys.hooks ~seed:s.Scenario.seed s.Scenario.faults in
  sys.set_rates s.Scenario.workload.Scenario.rate;
  sys.run_for s.Scenario.duration;
  Injector.heal injector;
  sys.set_rates 0.0;
  sys.run_for s.Scenario.drain;
  let sent, completed = sys.totals () in
  let safety_violations = Bftaudit.Auditor.violations auditor in
  (* A run that failed the oracles without tripping any trigger still
     deserves forensics: force one bundle of the post-drain state. *)
  (match doctor with
  | Some d
    when Bftdoctor.Doctor.incidents d = []
         && (safety_violations <> [] || completed <> sent) ->
    Bftdoctor.Doctor.force d
      ~reason:
        (Printf.sprintf
           "oracle failure after drain: %d/%d completed, %d violation(s)"
           completed sent
           (List.length safety_violations))
  | _ -> ());
  let result =
    {
      scenario = s;
      executed = sys.executed ();
      sent;
      completed;
      safety_violations;
      events_checked = Bftaudit.Auditor.events_checked auditor;
      digest = Option.map Bftaudit.Capture.digest cap;
      incidents =
        (match doctor with
        | Some d -> Bftdoctor.Doctor.incidents d
        | None -> []);
    }
  in
  Bftaudit.Auditor.detach auditor;
  Option.iter Bftaudit.Capture.detach cap;
  Option.iter Bftdoctor.Doctor.detach doctor;
  result

let liveness_ok r =
  r.completed = r.sent
  && (r.scenario.Scenario.workload.Scenario.rate <= 0.0
      || r.scenario.Scenario.workload.Scenario.clients = 0
      || r.sent > 0)

let ok r = r.safety_violations = [] && liveness_ok r

let summary r =
  Printf.sprintf "%s [%s]: %s, %d/%d completed, %d executed, %d violations, %d events"
    r.scenario.Scenario.name
    (Flavour.slug r.scenario.Scenario.protocol)
    (if ok r then "OK" else "FAIL")
    r.completed r.sent r.executed
    (List.length r.safety_violations)
    r.events_checked
