(** The doctor: one attach point tying the flight {!Recorder} to the
    {!Trigger} engine and the {!Bundle} writer.

    Wiring:
    - the probe's audit events flow through the recorder;
      [instance-changed] events become edges on the instance-change
      trigger;
    - {!Bftaudit.Auditor} violations arrive through the probe's
      violation subscription and become edges on the auditor-violation
      trigger;
    - every recorder tick snapshots metrics, ripens armed edge
      triggers, and evaluates the level triggers (liveness stall,
      Δ-ratio near threshold, sequencer stall);
    - a fire freezes the rings into a {!Bundle.incident}; when the
      config carries a directory the bundle is written to
      [dir/incident-NNN-<trigger>/], and either way the incident (and
      its digest) is kept on the doctor for the caller.

    Incident dumping is capped at {!max_incidents}; once reached,
    further fires are counted but not dumped. *)

open Dessim
module Event = Bftmetrics.Event

type config = {
  dir : string option;  (** bundle output directory; [None] = in memory *)
  seed : int64;
  config_fields : (string * string) list;  (** static, digest-protected *)
  context : (unit -> (string * string) list) option;
      (** sampled at dump time (e.g. current master primary) *)
  scenario : string option;  (** active [.scn] text under chaos *)
  triggers : Trigger.spec list;
}

let max_incidents = 8

type incident_ref = {
  i_seq : int;
  i_trigger : string;
  i_at : Time.t;
  i_reason : string;
  i_digest : string;
  i_dir : string option;  (** where the bundle was written, if it was *)
}

type t = {
  config : config;
  recorder : Recorder.t;
  triggers : Trigger.t list;
  mutable incidents : incident_ref list;  (* newest first *)
  mutable fires_suppressed : int;
  mutable unsubscribe : unit -> unit;
  mutable detached : bool;
}

let bundle_name seq trigger = Printf.sprintf "incident-%03d-%s" seq trigger

let dump t (fire : Trigger.fire) =
  if List.length t.incidents >= max_incidents then
    t.fires_suppressed <- t.fires_suppressed + 1
  else begin
    (* Freeze the metrics at the incident instant so the last snapshot
       in the bundle is the state at fire time, not one period old. *)
    Recorder.sample_now t.recorder;
    let config =
      t.config.config_fields
      @ (match t.config.context with Some f -> f () | None -> [])
    in
    let seq = List.length t.incidents + 1 in
    let incident =
      {
        Bundle.trigger = fire.Trigger.name;
        fired_at = fire.Trigger.at;
        reason = fire.Trigger.reason;
        seed = t.config.seed;
        config;
        scenario = t.config.scenario;
        events = Recorder.audit_events t.recorder;
        spans = Recorder.spans t.recorder;
        snapshots = Recorder.snapshots t.recorder;
        footprint = Bftcap.Footprint.snapshot (Recorder.probe t.recorder);
      }
    in
    let dir, digest =
      match t.config.dir with
      | Some base ->
        let dir = Filename.concat base (bundle_name seq fire.Trigger.name) in
        (Some dir, Bundle.write ~dir incident)
      | None -> (None, Bundle.digest incident)
    in
    t.incidents <-
      {
        i_seq = seq;
        i_trigger = fire.Trigger.name;
        i_at = fire.Trigger.at;
        i_reason = fire.Trigger.reason;
        i_digest = digest;
        i_dir = dir;
      }
      :: t.incidents
  end

let fire_opt t = function Some f -> dump t f | None -> ()

let on_event t (_rec : Recorder.t) (ev : Event.t) =
  match ev.Event.kind with
  | Event.Instance_changed { cpi; recovery } when not recovery ->
    List.iter
      (fun trig ->
        match Trigger.kind trig with
        | Trigger.Instance_change ->
          fire_opt t
            (Trigger.edge trig ~now:ev.Event.time
               ~reason:
                 (Printf.sprintf
                    "instance change on node %d: master instance %d demoted (cpi=%d)"
                    ev.Event.node ev.Event.instance cpi))
        | _ -> ())
      t.triggers
  | Event.Nic_closed { peer; _ } ->
    List.iter
      (fun trig ->
        match Trigger.kind trig with
        | Trigger.Nic_closure ->
          fire_opt t
            (Trigger.edge trig ~now:ev.Event.time
               ~reason:
                 (Printf.sprintf
                    "node %d closed its NIC against flooding peer node %d"
                    ev.Event.node peer))
        | _ -> ())
      t.triggers
  | _ -> ()

let on_violation t (v : Bftaudit.Auditor.violation) =
  List.iter
    (fun trig ->
      match Trigger.kind trig with
      | Trigger.Auditor_violation ->
        fire_opt t
          (Trigger.edge trig ~now:v.Bftaudit.Auditor.time
             ~reason:
               (Printf.sprintf "auditor violation [%s]: %s"
                  v.Bftaudit.Auditor.invariant v.Bftaudit.Auditor.detail))
      | _ -> ())
    t.triggers

let on_tick t (r : Recorder.t) now =
  List.iter
    (fun trig ->
      match Trigger.kind trig with
      | Trigger.Instance_change | Trigger.Auditor_violation
      | Trigger.Nic_closure ->
        fire_opt t (Trigger.ripen trig ~now)
      | Trigger.Liveness_stall { idle } ->
        let last_exec = Recorder.last_exec r in
        let pending = Recorder.last_req r > last_exec in
        let idle_for = Time.sub now last_exec in
        fire_opt t
          (Trigger.level trig ~now
             ~cond:(pending && idle_for >= idle)
             ~reason:
               (Printf.sprintf
                  "no execution for %s with requests pending (%d executed so far)"
                  (Time.to_string idle_for) (Recorder.executed r)))
      | Trigger.Seq_stall { age = bound } -> (
        match Recorder.last_seq_stall r with
        | Some s ->
          let cond = s.Recorder.s_waiting_on >= 0 && s.Recorder.s_age >= bound in
          fire_opt t
            (Trigger.level trig ~now ~cond
               ~reason:
                 (Printf.sprintf
                    "merge sequencer on node %d stalled %s at the head of \
                     instance %d's stream (%d batches pending behind it)"
                    s.Recorder.s_node
                    (Time.to_string s.Recorder.s_age)
                    s.Recorder.s_waiting_on s.Recorder.s_pending))
        | None -> fire_opt t (Trigger.level trig ~now ~cond:false ~reason:""))
      | Trigger.Delta_ratio_near { delta } -> (
        match Recorder.last_verdict r with
        | Some v ->
          let ratio =
            if v.Recorder.v_backup > 0.0 then
              v.Recorder.v_master /. v.Recorder.v_backup
            else Float.nan
          in
          let cond =
            v.Recorder.v_backup >= Trigger.min_meaningful_rate
            && (not v.Recorder.v_suspicious)
            && (not (Float.is_nan ratio))
            && Trigger.in_near_band ~delta ratio
          in
          fire_opt t
            (Trigger.level trig ~now ~cond
               ~reason:
                 (Printf.sprintf
                    "monitoring ratio %.4f within %.4f of Δ threshold %.4f (master %.1f/s, backup %.1f/s)"
                    ratio Trigger.near_epsilon delta v.Recorder.v_master
                    v.Recorder.v_backup))
        | None ->
          fire_opt t (Trigger.level trig ~now ~cond:false ~reason:"")))
    t.triggers

let attach config probe engine =
  let recorder = Recorder.attach probe engine in
  let t =
    {
      config;
      recorder;
      triggers = List.map Trigger.make config.triggers;
      incidents = [];
      fires_suppressed = 0;
      unsubscribe = ignore;
      detached = false;
    }
  in
  Recorder.set_on_event recorder (Some (on_event t));
  Recorder.set_on_tick recorder (Some (on_tick t));
  t.unsubscribe <- Bftmetrics.Probe.subscribe_violations probe (on_violation t);
  t

let detach t =
  if not t.detached then begin
    t.detached <- true;
    t.unsubscribe ();
    Recorder.detach t.recorder
  end

let recorder t = t.recorder

(** Oldest first. *)
let incidents t = List.rev t.incidents

let fires_suppressed t = t.fires_suppressed

(** Manual dump — the chaos runner's post-run failure path and the CI
    incident-smoke job use this to force a bundle. *)
let force t ~reason =
  let now = Engine.now (Recorder.engine t.recorder) in
  dump t { Trigger.at = now; name = "forced"; reason }
