(* One run's instrumentation plane. See probe.mli. *)

open Dessim
module Counter = Registry.Counter
module Gauge = Registry.Gauge

(* Subscribers in subscription order; adding one hands back the
   function that removes it. *)
type 'a subs = { mutable subs : (int * ('a -> unit)) list; mutable next : int }

let rec call_all l x = match l with [] -> () | (_, f) :: l -> f x; call_all l x
let call s x = call_all s.subs x

let add s f =
  s.next <- s.next + 1;
  let id = s.next in
  s.subs <- s.subs @ [ (id, f) ];
  fun () -> s.subs <- List.filter (fun (i, _) -> i <> id) s.subs

type violation = { time : Time.t; invariant : string; detail : string }

type footprint = {
  fp_name : string;
  fp_owner : string;
  fp_parent : string option;
  mutable fp_entries : unit -> int;
  mutable fp_root : unit -> Obj.t option;
  mutable fp_peak : int;
}

type crypto_op = Mac_gen | Mac_verify | Authenticator | Digest | Sig_sign | Sig_verify

(* Label values, in [crypto_op] declaration order. *)
let crypto_names = [ "mac_gen"; "mac_verify"; "authenticator"; "digest"; "sig_sign"; "sig_verify" ]
let crypto_index = function
  | Mac_gen -> 0 | Mac_verify -> 1 | Authenticator -> 2 | Digest -> 3 | Sig_sign -> 4 | Sig_verify -> 5

type t = {
  (* audit: the event sinks; [audit] is true while there is one *)
  sinks : Event.t subs;
  mutable audit : bool;
  declared : (int, unit) Hashtbl.t;
  on_violation : violation subs;
  (* metrics *)
  registry : Registry.t;
  mutable metrics : bool;
  crypto : (Counter.t * Counter.t) array;  (* ops, bytes; by [crypto_index] *)
  (* spans: one growable buffer indexed by span id *)
  mutable spans_on : bool;
  mutable sample : int;
  mutable spans : Span.t array;
  mutable len : int;
  on_close : Span.t subs;
  (* footprints *)
  mutable footprints_on : bool;
  mutable deep : bool;
  mutable footprints : footprint list;
}

let create () =
  let registry = Registry.create () in
  let crypto =
    Array.of_list
      (List.map
         (fun name ->
           let labels = [ ("op", name) ] in
           ( Registry.counter registry "bft_crypto_ops_total"
               ~help:"Cryptographic cost-model operations charged" ~labels,
             Registry.counter registry "bft_crypto_bytes_total"
               ~help:"Bytes processed by cryptographic operations" ~labels ))
         crypto_names)
  in
  {
    sinks = { subs = []; next = 0 };
    audit = false;
    declared = Hashtbl.create 8;
    on_violation = { subs = []; next = 0 };
    registry;
    metrics = false;
    crypto;
    spans_on = false;
    sample = 1;
    spans = [||];
    len = 0;
    on_close = { subs = []; next = 0 };
    footprints_on = false;
    deep = false;
    footprints = [];
  }

let default = create ()

let audit p = p.audit
let emit p ev = call p.sinks ev
let emit_at p time ~node ~instance kind = emit p { Event.time; node; instance; kind }

let subscribe p f =
  let remove = add p.sinks f in
  p.audit <- true;
  fun () ->
    remove ();
    p.audit <- p.sinks.subs <> []

let declare_faulty p ids = List.iter (fun i -> Hashtbl.replace p.declared i ()) ids
let reset_declared p = Hashtbl.reset p.declared
let is_declared p node = Hashtbl.mem p.declared node

let subscribe_violations p f = add p.on_violation f
let violation p v = call p.on_violation v

let registry p = p.registry
let metrics p = p.metrics
let set_metrics p on = p.metrics <- on

(* The hot calls below are inlined switch tests in front of an
   out-of-line body, so a run with the switch off pays a field read and
   a branch at the call site. *)
let tally p op bytes =
  let ops, byts = p.crypto.(crypto_index op) in
  Counter.inc ops;
  Counter.add byts bytes

let[@inline] crypto p op ~bytes = if p.metrics then tally p op bytes

let footprints p = p.footprints_on
let set_footprints p on = p.footprints_on <- on
let deep p = p.deep
let set_deep p on = p.deep <- on
let footprint_list p = p.footprints

let footprint p ?(owner = "global") ?parent ~name ~entries ~root () =
  let fp =
    match
      List.find_opt (fun f -> f.fp_name = name && f.fp_owner = owner) p.footprints
    with
    | Some f ->
      (* Rebind, like Registry.gauge_fn: a fresh component takes over
         the series; the peak restarts with it. *)
      f.fp_entries <- entries;
      f.fp_root <- root;
      f.fp_peak <- 0;
      f
    | None ->
      let f =
        { fp_name = name; fp_owner = owner; fp_parent = parent;
          fp_entries = entries; fp_root = root; fp_peak = 0 }
      in
      p.footprints <- p.footprints @ [ f ];
      f
  in
  Registry.gauge_fn p.registry ~help:"Live entry count of an instrumented structure"
    "bft_footprint_entries"
    ~labels:[ ("structure", name); ("owner", owner) ]
    (fun () -> float_of_int (fp.fp_entries ()));
  fp

let observe fp =
  let e = fp.fp_entries () in
  if e > fp.fp_peak then fp.fp_peak <- e

let[@inline] note p fp = if p.footprints_on then observe fp

let spans p = p.spans_on
let span_count p = p.len
let span_get p id = p.spans.(id)

let alloc p ~parent ~client ~rid ~node ~instance ~tag ~t0 ~t1 =
  if p.len >= Array.length p.spans then begin
    let a = Array.make (max 1024 (2 * Array.length p.spans)) Span.dummy in
    Array.blit p.spans 0 a 0 p.len;
    p.spans <- a
  end;
  let id = p.len in
  p.spans.(id) <- { Span.id; parent; client; rid; node; instance; tag; t0; t1 };
  p.len <- id + 1;
  id

let[@inline] notify_close p s = match p.on_close.subs with [] -> () | _ -> call p.on_close s
let subscribe_spans p f = add p.on_close f

let child p ~parent ~tag ~node ~instance ~t0 ~t1 =
  let s = p.spans.(parent) in
  alloc p ~parent ~client:s.Span.client ~rid:s.Span.rid ~node ~instance ~tag ~t0 ~t1

let[@inline] span p ~parent ~tag ~node ~instance ~t0 ~t1 =
  if parent < 0 || not p.spans_on then -1 else child p ~parent ~tag ~node ~instance ~t0 ~t1

let root p ~client ~rid now =
  if p.sample <= 1 || rid mod p.sample = 0 then
    alloc p ~parent:(-1) ~client ~rid ~node:(-1) ~instance:(-1) ~tag:Tag.Client ~t0:now
      ~t1:Span.none
  else -1

(* The root span of a client request, if the request is sampled. *)
let[@inline] request_root p ~client ~rid now =
  if p.spans_on then root p ~client ~rid now else -1

let[@inline] finish p id ~t1 =
  if id >= 0 && id < p.len then begin
    let s = Array.unsafe_get p.spans id in
    s.Span.t1 <- t1;
    notify_close p s
  end

(* A traced CPU job is a pair of consecutive spans: a queue-wait span
   opened at submission time and the work span proper. Both are closed
   by [on_job_start] when the job is dequeued, with the real
   (speed-scaled, charge-displaced) instants. The work span id (= queue
   id + 1) is what call sites carry around. *)
let job_spans p ~parent ~tag ~node ~instance ~now =
  let s = p.spans.(parent) in
  let client = s.Span.client and rid = s.Span.rid in
  let _q : int =
    alloc p ~parent ~client ~rid ~node ~instance ~tag:Tag.Queue_wait ~t0:now ~t1:Span.none
  in
  alloc p ~parent ~client ~rid ~node ~instance ~tag ~t0:now ~t1:Span.none

let[@inline] job p ~parent ~tag ~node ~instance ~now =
  if parent < 0 || not p.spans_on then -1 else job_spans p ~parent ~tag ~node ~instance ~now

let on_job_start p id ~start ~finish =
  if id >= 1 && id < p.len then begin
    let w = p.spans.(id) in
    w.Span.t0 <- start;
    w.Span.t1 <- finish;
    let q = p.spans.(id - 1) in
    if q.Span.tag = Tag.Queue_wait && q.Span.parent = w.Span.parent && Span.is_open q
    then begin
      q.Span.t1 <- start;
      notify_close p q
    end;
    notify_close p w
  end

let enable_spans ?(sample = 1) p =
  p.sample <- max 1 sample;
  ignore
    (footprint p ~owner:"tracer" ~name:"span.buffer"
       ~entries:(fun () -> p.len)
       ~root:(fun () -> Some (Obj.repr p.spans))
       ());
  p.spans_on <- true

let disable_spans p = p.spans_on <- false

let reset_spans p =
  p.spans <- [||];
  p.len <- 0;
  p.spans_on <- false

let span_array p = Array.sub p.spans 0 p.len

type node_metrics = {
  nm_node : int;
  nm_received : Counter.t;
  nm_dispatched : Counter.t;
  nm_executed : Counter.t;
  nm_instance_changes : Counter.t;
  nm_dispatch_latency : Hist.t;  (* first seen -> dispatched *)
  nm_ordering_latency : Hist.t array;  (* dispatch -> ordered *)
  nm_execution_latency : Hist.t;  (* dispatch -> executed *)
  nm_master_rate : Gauge.t;
  nm_backup_rate : Gauge.t;
  nm_ratio : Gauge.t;
  nm_delta : Gauge.t;
}

let node_metrics p ~node:id ~instances =
  let reg = p.registry in
  let node = string_of_int id in
  let counter name help = Registry.counter reg name ~help ~labels:[ ("node", node) ] in
  let gauge name help = Registry.gauge reg name ~help ~labels:[ ("node", node) ] in
  {
    nm_node = id;
    nm_received =
      counter "bft_requests_received_total" "Fresh client requests entering verification";
    nm_dispatched =
      counter "bft_requests_dispatched_total" "Requests handed to the local replicas";
    nm_executed = counter "bft_requests_executed_total" "Requests executed and replied to";
    nm_instance_changes =
      counter "bft_instance_changes_total" "Protocol instance changes performed";
    nm_dispatch_latency =
      Registry.histogram reg "bft_request_dispatch_latency_seconds"
        ~help:"First sight of a request to replica dispatch"
        ~labels:[ ("node", node) ];
    nm_ordering_latency =
      Array.init instances (fun i ->
          Registry.histogram reg "bft_ordering_latency_seconds"
            ~help:"Replica dispatch to total-order delivery"
            ~labels:[ ("node", node); ("instance", string_of_int i) ]);
    nm_execution_latency =
      Registry.histogram reg "bft_execution_latency_seconds"
        ~help:"Replica dispatch to execution completion"
        ~labels:[ ("node", node) ];
    nm_master_rate =
      gauge "bft_monitor_master_rate"
        "Monitoring: averaged master-instance throughput (req/s)";
    nm_backup_rate =
      gauge "bft_monitor_backup_rate"
        "Monitoring: averaged mean backup-instance throughput (req/s)";
    nm_ratio =
      gauge "bft_monitor_ratio"
        "Monitoring: master/backup throughput ratio the delta test checks";
    nm_delta =
      gauge "bft_monitor_delta_threshold" "Monitoring: configured delta acceptance threshold";
  }

type replica_metrics = {
  rm_node : int;
  rm_instance : int;
  rm_prepare_latency : Hist.t;  (* pre-prepare -> prepared *)
  rm_commit_latency : Hist.t;  (* prepared -> delivered *)
  rm_batch_occupancy : Hist.t;
  rm_requests_ordered : Counter.t;
  rm_batches_ordered : Counter.t;
  rm_view_changes : Counter.t;
}

let replica_metrics p ~node:id ~instance:i =
  let reg = p.registry in
  let node = string_of_int id and instance = string_of_int i in
  let phase ph =
    Registry.histogram reg "bft_phase_latency_seconds"
      ~help:"Ordering pipeline phase latency per replica"
      ~labels:[ ("node", node); ("instance", instance); ("phase", ph) ]
  in
  (* Field initialisers are evaluated in the compiler's order; keep
     this literal's shape so the families register in the same order. *)
  {
    rm_node = id;
    rm_instance = i;
    rm_prepare_latency = phase "prepare";
    rm_commit_latency = phase "commit";
    rm_batch_occupancy =
      Registry.histogram reg "bft_batch_occupancy" ~min_value:1.0 ~gamma:1.2
        ~help:"Requests per flushed batch (primary side)"
        ~labels:[ ("node", node); ("instance", instance) ];
    rm_requests_ordered =
      Registry.counter reg "bft_requests_ordered_total"
        ~help:"Requests delivered in total order"
        ~labels:[ ("node", node); ("instance", instance) ];
    rm_batches_ordered =
      Registry.counter reg "bft_batches_ordered_total"
        ~help:"Batches delivered in total order"
        ~labels:[ ("node", node); ("instance", instance) ];
    rm_view_changes =
      Registry.counter reg "bft_view_changes_total"
        ~help:"Views entered (view-change completions)"
        ~labels:[ ("node", node); ("instance", instance) ];
  }

type chan = { ch_msgs : Counter.t; ch_bytes : Counter.t; ch_drops : Counter.t }
type net_metrics = { nn : chan; nc : chan; cn : chan }
type channel = Node_node | Node_client | Client_node

let net_metrics p =
  let reg = p.registry in
  let chan c =
    let labels = [ ("channel", c) ] in
    {
      ch_msgs =
        Registry.counter reg "bft_net_messages_total" ~help:"Messages delivered, by channel"
          ~labels;
      ch_bytes =
        Registry.counter reg "bft_net_bytes_total" ~help:"Payload bytes delivered, by channel"
          ~labels;
      ch_drops =
        Registry.counter reg "bft_net_dropped_total"
          ~help:"Messages dropped (closed NIC, no handler), by channel" ~labels;
    }
  in
  { nn = chan "node-node"; nc = chan "node-client"; cn = chan "client-node" }

let chan m = function Node_node -> m.nn | Node_client -> m.nc | Client_node -> m.cn

let sec d = Time.to_sec_f d

let request_received p m now ~client ~rid ~size =
  if p.metrics then Counter.inc m.nm_received;
  if p.audit then
    emit_at p now ~node:m.nm_node ~instance:(-1)
      (Event.Request_received { client; rid; size })

let request_dispatched p m now ~client ~rid ~first_seen =
  if p.metrics then begin
    Counter.inc m.nm_dispatched;
    Hist.add m.nm_dispatch_latency (sec (Time.sub now first_seen))
  end;
  if p.audit then
    emit_at p now ~node:m.nm_node ~instance:(-1)
      (Event.Request_dispatched { client; rid })

let request_ordered p m ~instance ~latency =
  if p.metrics then Hist.add m.nm_ordering_latency.(instance) (sec latency)

(* [dispatched]: when the request was handed to the replicas, if it
   was; the execution latency counts from there. *)
let request_executed p m ~dispatched now =
  if p.metrics then begin
    Counter.inc m.nm_executed;
    match dispatched with
    | Some d -> Hist.add m.nm_execution_latency (sec (Time.sub now d))
    | None -> ()
  end

let instance_changed p m now ~instance ~cpi ~recovery =
  if p.metrics then Counter.inc m.nm_instance_changes;
  if p.audit then
    emit_at p now ~node:m.nm_node ~instance (Event.Instance_changed { cpi; recovery })

let monitor_verdict p m now ~instance ~master_rate ~backup_rate ~ratio ~delta ~suspicious =
  if p.metrics then begin
    Gauge.set m.nm_master_rate master_rate;
    Gauge.set m.nm_backup_rate backup_rate;
    Gauge.set m.nm_ratio ratio;
    Gauge.set m.nm_delta delta
  end;
  if p.audit then
    emit_at p now ~node:m.nm_node ~instance
      (Event.Monitor_verdict { master_rate; backup_rate; suspicious })

let executed p now ~node ~instance ~client ~rid ~digest =
  if p.audit then emit_at p now ~node ~instance (Event.Executed { client; rid; digest })

let batch_flushed p m ~size =
  if p.metrics then Hist.add m.rm_batch_occupancy (float_of_int size)

let batch_ordered p m now ~seq ~count ~digest ~t_pp ~t_prepared =
  if p.audit then
    emit_at p now ~node:m.rm_node ~instance:m.rm_instance
      (Event.Ordered { seq; count; digest });
  if p.metrics then begin
    Hist.add m.rm_prepare_latency (sec (Time.sub t_prepared t_pp));
    Hist.add m.rm_commit_latency (sec (Time.sub now t_prepared));
    Counter.add m.rm_requests_ordered count;
    Counter.inc m.rm_batches_ordered
  end

let view_entered p m now ~view ~primary =
  if p.audit then
    emit_at p now ~node:m.rm_node ~instance:m.rm_instance
      (Event.View_entered { view; primary });
  if p.metrics then Counter.inc m.rm_view_changes

let delivered p m ch ~size =
  if p.metrics then begin
    let c = chan m ch in
    Counter.inc c.ch_msgs;
    Counter.add c.ch_bytes size
  end

let dropped p m ch now ~node ~src ~show ~reason =
  if p.metrics then Counter.inc (chan m ch).ch_drops;
  if p.audit then
    emit_at p now ~node ~instance:(-1) (Event.Net_dropped { src = show src; reason })
