(** The always-on flight recorder.

    Bounded rings over the three observability streams, watermarked
    with engine sim-time:

    - {e audit events}: a subscription to the run's probe pushes every
      structured event into a ring (and maintains the execution /
      request watermarks the liveness-stall trigger reads);
    - {e spans}: a span-close subscription pushes every span as
      it closes; root (client) spans additionally feed a sliding
      window of end-to-end latencies for the p99 SLO trigger;
    - {e metrics}: a periodic tick snapshots the registry into a small
      ring of timestamped sample sets.

    The tick is armed at absolute engine-time boundaries
    [epoch + k * period] (same discipline as {!Bftmetrics.Sampler}),
    so the series is anchored to engine sim-time by construction and
    per-node clock skew cannot drift it.

    Zero-cost when disabled, like every hook layer in this codebase:
    while no recorder is attached the probe has no event sinks and no
    span-close subscribers — the dispatch costs a few nanoseconds
    (pinned by the Bechamel row [doctor-span-close-disabled]). *)

open Dessim
module Registry = Bftmetrics.Registry
module Probe = Bftmetrics.Probe
module Event = Bftmetrics.Event
module Span = Bftspan.Span

type snapshot = { m_time : Time.t; m_samples : Registry.sample list }

type root = {
  r_time : Time.t;  (** close instant (t1 of the root span) *)
  r_latency : Time.t;
  r_client : int;
  r_rid : int;
}

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
  period : Time.t;
  epoch : Time.t;
  mutable k : int;  (* index of the last armed tick *)
  audit : Event.t Ring.t;
  spans : Span.t Ring.t;
  metrics : snapshot Ring.t;
  roots : root Ring.t;
  mutable last_exec : Time.t;
  mutable last_req : Time.t;
  mutable executed : int;
  mutable last_verdict : verdict option;
  mutable last_seq_stall : seq_stall option;
  mutable unsubscribe : unit -> unit;
  mutable on_event : (t -> Event.t -> unit) option;
  mutable on_tick : (t -> Time.t -> unit) option;
  mutable detached : bool;
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

let handle_close t (s : Span.t) =
  if not (Span.is_open s) then begin
    Ring.push t.spans s;
    if s.Span.parent < 0 then
      Ring.push t.roots
        {
          r_time = s.Span.t1;
          r_latency = Time.sub s.Span.t1 s.Span.t0;
          r_client = s.Span.client;
          r_rid = s.Span.rid;
        }
  end

let rec arm t =
  t.k <- t.k + 1;
  let next = Time.add t.epoch (Time.ns (t.k * (t.period : Time.t))) in
  ignore
    (Engine.at t.engine next (fun () ->
         if not t.detached then begin
           sample_now t;
           (match t.on_tick with
           | Some f -> f t (Engine.now t.engine)
           | None -> ());
           arm t
         end))

let attach ?(audit_cap = 4096) ?(span_cap = 4096) ?(metrics_cap = 16)
    ?(roots_cap = 512) ?(period = Time.ms 100) probe engine =
  Probe.set_metrics probe true;
  let now = Engine.now engine in
  let t =
    {
      engine;
      probe;
      period;
      epoch = now;
      k = 0;
      audit = Ring.create audit_cap;
      spans = Ring.create span_cap;
      metrics = Ring.create metrics_cap;
      roots = Ring.create roots_cap;
      last_exec = now;
      last_req = now;
      executed = 0;
      last_verdict = None;
      last_seq_stall = None;
      unsubscribe = ignore;
      on_event = None;
      on_tick = None;
      detached = false;
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
  ignore
    (Probe.footprint probe ~owner:"recorder" ~name:"doctor.roots_ring"
       ~entries:(fun () -> Ring.length t.roots)
       ~root:(fun () -> Some (Obj.repr t.roots))
       ());
  let events = Probe.subscribe probe (handle_event t) in
  let spans = Probe.subscribe_spans probe (handle_close t) in
  t.unsubscribe <-
    (fun () ->
      events ();
      spans ());
  sample_now t;
  arm t;
  t

let detach t =
  if not t.detached then begin
    t.detached <- true;
    t.unsubscribe ()
  end

let probe t = t.probe
let set_on_event t f = t.on_event <- f
let set_on_tick t f = t.on_tick <- f

(* --- evidence accessors (oldest first) ----------------------------- *)

let audit_events t = Ring.to_list t.audit
let spans t = Ring.to_list t.spans
let snapshots t = Ring.to_list t.metrics
let root_latencies t = Ring.to_list t.roots
let last_verdict t = t.last_verdict
let last_seq_stall t = t.last_seq_stall
let last_exec t = t.last_exec
let last_req t = t.last_req
let executed t = t.executed
let engine t = t.engine
let period t = t.period
let events_seen t = Ring.pushed t.audit
let spans_seen t = Ring.pushed t.spans

(** p99 over the sliding window of committed root latencies, with the
    window's population. *)
let p99_latency t =
  let xs = List.map (fun r -> (r.r_latency : Time.t)) (Ring.to_list t.roots) in
  match xs with
  | [] -> (0, Time.zero)
  | xs ->
    let a = Array.of_list xs in
    Array.sort compare a;
    let n = Array.length a in
    let rank = int_of_float (ceil (0.99 *. float_of_int n)) in
    (n, Time.ns a.(max 0 (min (n - 1) (rank - 1))))
