(** The always-on flight recorder.

    Bounded rings over the three observability streams, watermarked
    with engine sim-time:

    - {e audit events}: a subscription to the run's probe pushes every
      structured event into a ring (and maintains the execution /
      request watermarks the liveness-stall trigger reads);
    - {e spans}: a span-close subscription pushes every span as
      it closes;
    - {e metrics}: a periodic tick snapshots the registry into a small
      ring of timestamped sample sets and folds the footprint peaks.

    The ring sizes and the tick period are constants. The tick is
    {!Dessim.Engine.every} (as for {!Bftmetrics.Sampler}), so the
    series is anchored to engine sim-time by construction and per-node
    clock skew cannot drift it.

    Zero-cost when disabled, like every hook layer in this codebase:
    while no recorder is attached the probe has no event sinks and no
    span-close subscribers — the dispatch costs a few nanoseconds
    (pinned by the Bechamel row [doctor-span-close-disabled]). *)

open Dessim
module Registry = Bftmetrics.Registry
module Probe = Bftmetrics.Probe
module Event = Bftmetrics.Event
module Ring = Bftmetrics.Ring
module Span = Bftspan.Span

let audit_cap = 4096
let span_cap = 4096
let metrics_cap = 16
let period = Time.ms 100

type snapshot = { m_time : Time.t; m_samples : Registry.sample list }

type verdict = {
  v_time : Time.t;
  v_node : int;
  v_master : float;
  v_backup : float;
  v_suspicious : bool;
}

(* Latest merge-sequencer head-of-line sample (concurrent ordering
   only; the nodes publish one per monitoring period). [s_waiting_on]
   is -1 when the merge was not stalled at sampling time. *)
type seq_stall = {
  s_time : Time.t;
  s_node : int;
  s_waiting_on : int;
  s_age : Time.t;
  s_pending : int;
}

type t = {
  engine : Engine.t;
  probe : Probe.t;
  audit : Event.t Ring.t;
  spans : Span.t Ring.t;
  metrics : snapshot Ring.t;
  mutable last_exec : Time.t;
  mutable last_req : Time.t;
  mutable executed : int;
  mutable last_verdict : verdict option;
  mutable last_seq_stall : seq_stall option;
  mutable unsubscribe : unit -> unit;
  mutable on_event : (t -> Event.t -> unit) option;
  mutable on_tick : (t -> Time.t -> unit) option;
}

(* Snapshots are sorted by (name, labels) so their serialisation does
   not depend on registration order — bundles must be byte-identical
   across same-seed replays even if lazily-registered families (the
   metrics bridge) appear in a different order. *)
let compare_sample (a : Registry.sample) (b : Registry.sample) =
  match compare a.Registry.s_name b.Registry.s_name with
  | 0 -> compare a.Registry.s_labels b.Registry.s_labels
  | c -> c

let sample_now t =
  Ring.push t.metrics
    {
      m_time = Engine.now t.engine;
      m_samples = List.sort compare_sample (Registry.snapshot (Probe.registry t.probe));
    }

let handle_event t (ev : Event.t) =
  Ring.push t.audit ev;
  (match ev.Event.kind with
  | Event.Executed _ ->
    t.last_exec <- ev.Event.time;
    t.executed <- t.executed + 1
  | Event.Request_received _ | Event.Request_dispatched _ ->
    t.last_req <- ev.Event.time
  | Event.Monitor_verdict { master_rate; backup_rate; suspicious } ->
    t.last_verdict <-
      Some
        {
          v_time = ev.Event.time;
          v_node = ev.Event.node;
          v_master = master_rate;
          v_backup = backup_rate;
          v_suspicious = suspicious;
        }
  | Event.Seq_stall { waiting_on; age; pending } ->
    t.last_seq_stall <-
      Some
        {
          s_time = ev.Event.time;
          s_node = ev.Event.node;
          s_waiting_on = waiting_on;
          s_age = age;
          s_pending = pending;
        }
  | _ -> ());
  match t.on_event with Some f -> f t ev | None -> ()

let handle_close t (s : Span.t) = if not (Span.is_open s) then Ring.push t.spans s

let tick t =
  sample_now t;
  Bftcap.Footprint.observe_peaks t.probe;
  match t.on_tick with Some f -> f t (Engine.now t.engine) | None -> ()

let attach probe engine =
  Probe.set_metrics probe true;
  let now = Engine.now engine in
  let t =
    {
      engine;
      probe;
      audit = Ring.create audit_cap;
      spans = Ring.create span_cap;
      metrics = Ring.create metrics_cap;
      last_exec = now;
      last_req = now;
      executed = 0;
      last_verdict = None;
      last_seq_stall = None;
      unsubscribe = ignore;
      on_event = None;
      on_tick = None;
    }
  in
  ignore
    (Probe.footprint probe ~owner:"recorder" ~name:"doctor.audit_ring"
       ~entries:(fun () -> Ring.length t.audit)
       ~root:(fun () -> Some (Obj.repr t.audit))
       ());
  ignore
    (Probe.footprint probe ~owner:"recorder" ~name:"doctor.span_ring"
       ~entries:(fun () -> Ring.length t.spans)
       ~root:(fun () -> Some (Obj.repr t.spans))
       ());
  ignore
    (Probe.footprint probe ~owner:"recorder" ~name:"doctor.metrics_ring"
       ~entries:(fun () -> Ring.length t.metrics)
       ~root:(fun () -> Some (Obj.repr t.metrics))
       ());
  let events = Probe.subscribe probe (handle_event t) in
  let spans = Probe.subscribe_spans probe (handle_close t) in
  sample_now t;
  let ticks = Engine.every engine period (fun () -> tick t) in
  t.unsubscribe <-
    (fun () ->
      t.unsubscribe <- ignore;
      events ();
      spans ();
      ticks ());
  t

let detach t = t.unsubscribe ()

let probe t = t.probe
let set_on_event t f = t.on_event <- f
let set_on_tick t f = t.on_tick <- f

(* --- evidence accessors (oldest first) ----------------------------- *)

let audit_events t = Ring.to_list t.audit
let spans t = Ring.to_list t.spans
let snapshots t = Ring.to_list t.metrics
let last_verdict t = t.last_verdict
let last_seq_stall t = t.last_seq_stall
let last_exec t = t.last_exec
let last_req t = t.last_req
let executed t = t.executed
let engine t = t.engine
let events_seen t = Ring.pushed t.audit
let spans_seen t = Ring.pushed t.spans
