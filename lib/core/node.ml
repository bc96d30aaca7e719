open Dessim
open Bftcrypto
open Bftnet
open Pbftcore.Types
module Node_core = Pbftcore.Node_core
module Idset = Pbftcore.Idset
module Probe = Bftmetrics.Probe
module Event = Bftmetrics.Event
module Tag = Bftmetrics.Tag
module Registry = Bftmetrics.Registry

type faults = {
  mutable flood_targets : int list;
  mutable flood_rate : float;
  mutable no_propagate : bool;
  mutable drop_client_requests : bool;
  mutable ic_quorum : int option;
}

(* One committed batch travelling from a replica's delivery to the
   global merge (concurrent ordering): the descriptors with their
   ordering-chain spans, and the commit instant so the Sequence span
   covers exactly the committed -> merged interval. *)
type seq_batch = {
  sb_descs : (request_desc * int) list;
  sb_committed : Time.t;
}

(* State of the concurrent (bftrcc) ordering mode; absent in the
   paper's redundant mode. *)
type rcc = {
  partitioner : Bftrcc.Partitioner.t;
  sequencer : seq_batch Bftrcc.Sequencer.t;
  (* Degrade path: while [degraded.(i)] every primary also proposes
     partition i's requests (classic redundant fallback); cleared when
     instance i delivers a batch in [degrade_target.(i)] or later. *)
  degraded : bool array;
  degrade_target : int array;
  (* While a partition is degraded every instance orders foreign
     requests, so per-instance rates stop measuring per-partition
     service — the normalized Δ comparison would demote on its own
     fallback traffic. Rate-based suspicion is suppressed while any
     partition is degraded and until the moving windows have flushed
     the fallback samples ([quiet_until], set on change and clear). *)
  mutable quiet_until : Time.t;
  (* Per-owner PROPAGATE-BATCH accumulation (reversed), flushed by
     size or timer on the owner's lane. *)
  prop_buf : Messages.request list array;
  prop_len : int array;
  prop_timer : bool array;
}

(* Book-keeping for one request on its way through the node. *)
type request_state = {
  first_seen : Time.t;  (* when this node first learned of the request *)
  mutable req : Messages.request option;  (* full request, once known *)
  senders : Pbftcore.Voteset.t;  (* distinct PROPAGATE senders (incl. self) *)
  mutable propagated : bool;  (* we sent our own PROPAGATE *)
  mutable sig_checked : bool;
  mutable sig_inflight : bool;  (* a verification job is pending *)
  mutable dispatched : bool;
  mutable dispatch_time : Time.t;
  mutable span : int;  (* latest span of this request on this node; -1 untraced *)
  mutable ordered : int;  (* instances that ordered it while tracked *)
}

type t = {
  core : Messages.t Pbftcore.Node_core.t;
  params : Params.t;
  (* Module threads (Figure 6), each on its own core. *)
  verification : Resource.t;
  propagation : Resource.t;
  dispatch : Resource.t;
  execution : Resource.t;
  (* The admission gate and its ledger of slots, keyed by request id
     at ingress triage time — before any tracking state exists — and
     released exactly once when the request executes, is dropped, or
     its client is blacklisted. Empty while the gate is disabled. *)
  admission : Bftflow.Admission.t;
  replica_threads : Resource.t array;
  mutable replicas : Pbftcore.Replica.t array;
  faults : faults;
  monitoring : Monitoring.t;
  requests : request_state Request_id_table.t;
  (* Ids whose tracking state was retired (see [retire_if_done]): a
     subset of the executed ids, kept apart from them because an
     executed id this node never tracked still takes the tracked path. *)
  retired : Idset.t;
  mutable tracked_peak : int;  (* high-water mark of [requests] *)
  (* Footprint over [requests], noted on insertion so peaks are exact
     between sampler ticks; bound in [create]. *)
  mutable fp_requests : Probe.footprint option;
  mutable blacklist : int list;  (* clients *)
  (* Protocol instance change state. *)
  mutable cpi : int;
  mutable suspicious : bool;  (* current monitoring verdict *)
  (* Instance-change votes: per node the highest cpi it voted for, and
     the bitset of nodes whose vote covers the *current* cpi (rebuilt
     from the array on the rare cpi advance, O(1) on the quorum
     check). *)
  ic_vote_cpi : int array;
  ic_votes : Pbftcore.Voteset.t;
  mutable ic_sent_for : int;  (* last cpi we voted for; -1 = none *)
  mutable instance_changes : int;
  mutable last_change_at : Time.t;
  mutable master_instance : int;
  (* Flood defence: invalid messages per peer in the current window. *)
  invalid_counts : int array;
  mutable latency_probe : (instance:int -> client:int -> Time.t -> unit) option;
  mutable started : bool;
  mutable rcc : rcc option;  (* concurrent (bftrcc) ordering state *)
  m : Probe.node_metrics;
}

let id t = t.core.id
let params t = t.params
let faults t = t.faults
let replica t ~instance = t.replicas.(instance)
let monitoring t = t.monitoring
let master_instance t = t.master_instance
let ledger t = t.core.ledger
let executed_count t = Pbftcore.Ledger.count t.core.ledger
let executed_counter t = Pbftcore.Ledger.counter t.core.ledger
let execution_digest t = Pbftcore.Ledger.digest t.core.ledger
let cpi t = t.cpi
let instance_changes t = t.instance_changes
let is_blacklisted t ~client = List.mem client t.blacklist
let suspicious t = t.suspicious
let ic_vote_count t = Pbftcore.Voteset.count t.ic_votes
let ordering t = t.params.Params.ordering
let tracked_peak t = t.tracked_peak

let degraded_partitions t =
  match t.rcc with
  | None -> []
  | Some rcc ->
    let acc = ref [] in
    Array.iteri (fun i d -> if d then acc := i :: !acc) rcc.degraded;
    List.rev !acc

let ic_vote_cpi_of t ~node =
  if node >= 0 && node < Array.length t.ic_vote_cpi then t.ic_vote_cpi.(node)
  else -1

let set_clock_factor t = Node_core.set_clock_factor t.core
let set_cpu_factor t = Node_core.set_cpu_factor t.core

let admission_inflight t = Bftflow.Admission.inflight t.admission
let admission_shed t = Bftflow.Admission.shed_total t.admission

let n_nodes t = t.core.n
let instance_count t = Params.instances t.params

(* Audit-only events; call sites guard with [Probe.audit] so the
   disabled path allocates nothing. Node-level events that are not
   tied to one ordering instance use instance -1. *)
let audit t ?(instance = -1) kind = Node_core.audit t.core ~instance kind

(* ------------------------------------------------------------------ *)
(* Message sizes                                                      *)
(* ------------------------------------------------------------------ *)

let msg_size params msg =
  Messages.wire_size msg ~n:(Params.n params)
    ~order_full_requests:params.Params.order_full_requests

(* CPU byte-accounting per message class:
   - client REQUESTs are copied several times on the verification path
     (NIC buffer, verification pass, hand-off to propagation) — the
     dominant per-byte cost at large request sizes, matching the
     paper's crypto-bound Verification module;
   - PROPAGATEs are forwarded by reference once verified (the
     Propagation module enqueues, it does not re-serialize bodies);
   - with the order-full-requests ablation, PRE-PREPAREs carry whole
     bodies that get copied repeatedly (compare the Aardvark
     baseline); identifiers-only RBFT never pays this. *)
let cost_bytes params msg ~size =
  match msg with
  | Messages.Request { desc; _ } ->
    (* Headers and authenticators are read once; the operation body is
       what gets copied across buffers. *)
    size + (3 * desc.op_size)
  | Messages.Propagate _ | Messages.Propagate_batch _ -> (2 * size) / 5
  | Messages.Instance { msg = Pbftcore.Messages.Pre_prepare _; _ }
    when params.Params.order_full_requests ->
    6 * size
  | Messages.Instance _ | Messages.Instance_change _ | Messages.Reply _
  | Messages.Busy _ ->
    size

(* ------------------------------------------------------------------ *)
(* Request tracking                                                   *)
(* ------------------------------------------------------------------ *)

let request_state t rid =
  match Request_id_table.find_opt t.requests rid with
  | Some state -> state
  | None ->
    let state =
      {
        first_seen = Engine.now t.core.engine;
        req = None;
        senders = Pbftcore.Voteset.create ~n:(n_nodes t);
        propagated = false;
        sig_checked = false;
        sig_inflight = false;
        dispatched = false;
        dispatch_time = Time.zero;
        span = -1;
        ordered = 0;
      }
    in
    Request_id_table.add t.requests rid state;
    t.tracked_peak <- max t.tracked_peak (Request_id_table.length t.requests);
    (match t.fp_requests with Some fp -> Probe.note t.core.probe fp | None -> ());
    state

let retired t id = Idset.mem t.retired id

(* A request's tracking state is needed until it has been dispatched
   (the f+1 PROPAGATE guard passed on a checked signature), this node
   has sent its own PROPAGATE, every instance has ordered it (the
   monitor times each one from [dispatch_time]) and the master has
   executed it. Past that point every entry path would find all its
   flags set and do nothing, so the state is dropped and the id kept
   as a range in [retired]; the entry paths check [retired] first.
   Called on the live state after each of those flags is set. *)
let retire_if_done t id (state : request_state) =
  if
    state.dispatched && state.propagated && state.sig_checked
    && (not state.sig_inflight)
    && state.ordered = Array.length t.replicas
    && Node_core.has_executed t.core id
  then begin
    Request_id_table.remove t.requests id;
    Idset.add t.retired id
  end

(* ------------------------------------------------------------------ *)
(* Dispatch: hand a request to the f+1 local replicas (step 2 end).   *)
(* ------------------------------------------------------------------ *)

let dispatch_request t ~span (req : Messages.request) =
  let id = req.desc.id in
  if not (retired t id) then begin
    let state = request_state t id in
    if not state.dispatched then begin
      state.dispatched <- true;
      state.dispatch_time <- Engine.now t.core.engine;
      Probe.request_dispatched t.core.probe t.m state.dispatch_time
        ~client:id.client ~rid:id.rid ~first_seen:state.first_seen;
      (* Concurrent ordering: count the request against its owning
         partition so monitoring can normalize observed rates by the
         offered load per instance. *)
      (match t.rcc with
       | Some rcc ->
         Monitoring.note_offered t.monitoring
           ~instance:(Bftrcc.Partitioner.owner rcc.partitioner ~client:id.client)
           ~count:1
       | None -> ());
      Array.iteri
        (fun i replica_thread ->
          let replica = t.replicas.(i) in
          let rspan =
            Probe.job t.core.probe ~parent:span ~tag:Tag.Dispatch ~node:t.core.id
              ~instance:i ~now:state.dispatch_time
          in
          Resource.submit ~span:rspan replica_thread ~cost:(Time.ns 200)
            (fun () -> Pbftcore.Replica.submit ~span:rspan replica req.desc))
        t.replica_threads;
      retire_if_done t id state
    end
  end

(* ------------------------------------------------------------------ *)
(* Propagation module (step 2)                                        *)
(* ------------------------------------------------------------------ *)

(* Hand over to the replicas once the f+1 PROPAGATE guard holds and
   the signature is known-good. *)
let maybe_dispatch t (state : request_state) =
  match state.req with
  | Some r
    when state.sig_checked && (not state.dispatched)
         && Pbftcore.Voteset.count state.senders >= t.params.Params.f + 1 ->
    let dspan =
      Probe.job t.core.probe ~parent:state.span ~tag:Tag.Dispatch ~node:t.core.id
        ~instance:(-1) ~now:(Engine.now t.core.engine)
    in
    Resource.submit ~span:dspan t.dispatch ~cost:(Time.ns 200) (fun () ->
        dispatch_request t ~span:dspan r)
  | Some _ | None -> ()

let note_sender t (state : request_state) sender req =
  (match (state.req, req) with
   | None, Some r -> state.req <- Some r
   | None, None | Some _, _ -> ());
  if Pbftcore.Voteset.add state.senders sender then maybe_dispatch t state

(* Concurrent ordering: own PROPAGATEs are accumulated per owning
   instance and broadcast as one PROPAGATE-BATCH from the owner's lane
   — one batch authenticator instead of per-request MAC vectors, which
   is what buys the concurrent mode its network headroom. *)
let flush_prop t rcc owner =
  if rcc.prop_len.(owner) > 0 then begin
    let reqs = List.rev rcc.prop_buf.(owner) in
    rcc.prop_buf.(owner) <- [];
    rcc.prop_len.(owner) <- 0;
    Node_core.broadcast t.core t.replica_threads.(owner)
      (Messages.Propagate_batch { reqs; owner })
  end

let buffer_propagate t rcc (req : Messages.request) =
  let owner =
    Bftrcc.Partitioner.owner rcc.partitioner ~client:req.desc.id.client
  in
  rcc.prop_buf.(owner) <- req :: rcc.prop_buf.(owner);
  rcc.prop_len.(owner) <- rcc.prop_len.(owner) + 1;
  if rcc.prop_len.(owner) >= Params.propagate_batch then
    Resource.submit t.replica_threads.(owner) ~cost:(Time.ns 200) (fun () ->
        flush_prop t rcc owner)
  else if not rcc.prop_timer.(owner) then begin
    rcc.prop_timer.(owner) <- true;
    ignore
      (Clock.after t.core.clock Params.propagate_batch_delay (fun () ->
           rcc.prop_timer.(owner) <- false;
           Resource.submit t.replica_threads.(owner) ~cost:(Time.ns 200)
             (fun () -> flush_prop t rcc owner)))
  end

let propagate_request t (req : Messages.request) =
  let id = req.desc.id in
  if not (retired t id) then begin
    let state = request_state t id in
    if not state.propagated then begin
      state.propagated <- true;
      if not t.faults.no_propagate then begin
        if Probe.audit t.core.probe then
          audit t
            (Event.Request_propagated
               { client = req.desc.id.client; rid = req.desc.id.rid });
        match t.rcc with
        | Some rcc -> buffer_propagate t rcc req
        | None ->
          Node_core.broadcast ~span:state.span t.core t.propagation
            (Messages.Propagate { req; junk = false })
      end
    end;
    note_sender t state t.core.id (Some req);
    retire_if_done t id state
  end

(* ------------------------------------------------------------------ *)
(* Flood defence                                                      *)
(* ------------------------------------------------------------------ *)

let note_invalid_from t peer =
  if peer >= 0 && peer < n_nodes t then begin
    t.invalid_counts.(peer) <- t.invalid_counts.(peer) + 1;
    if t.invalid_counts.(peer) > Params.flood_threshold then begin
      t.invalid_counts.(peer) <- 0;
      if Probe.audit t.core.probe then
        audit t
          (Event.Nic_closed
             {
               peer;
               until = Time.add (Engine.now t.core.engine) Params.flood_close_time;
             });
      Network.close_nic t.core.net ~node:t.core.id ~peer:(Principal.node peer)
        ~for_:Params.flood_close_time
    end
  end

(* ------------------------------------------------------------------ *)
(* Verification module (step 1)                                       *)
(* ------------------------------------------------------------------ *)

(* Backpressure reply (admission gate). Charged to the propagation
   thread, not verification: the whole point of shedding is to keep the
   verification stage's cycles for admitted traffic, so the refusal
   path must not consume them generating BUSY authenticators. *)
let busy_to t (id : request_id) retry_after =
  Node_core.send t.core t.propagation
    ~dst:(Principal.client id.client)
    (Messages.Busy { id; retry_after })

(* Schedule the (single) signature verification for a request on the
   verification thread, then resume on the propagation thread. Runs at
   most once per request: concurrent callers find [sig_inflight]. Both
   callers have already turned a retired id away (it is executed, and
   [handle_propagate] checks [retired]). *)
let verify_signature_once t (req : Messages.request) =
  let state = request_state t req.desc.id in
  if (not state.sig_checked) && not state.sig_inflight then begin
    state.sig_inflight <- true;
    (* Concurrent ordering: the signature check and the post-verify
       propagate run on the owning partition's lane, so per-request
       crypto scales with the number of instances instead of
       serialising on the single verification thread. *)
    let lane =
      match t.rcc with
      | Some rcc ->
        Some
          t.replica_threads.(Bftrcc.Partitioner.owner rcc.partitioner
                               ~client:req.desc.id.client)
      | None -> None
    in
    let thread = match lane with Some r -> r | None -> t.verification in
    let vspan =
      Probe.job t.core.probe ~parent:state.span ~tag:Tag.Crypto_verify ~node:t.core.id
        ~instance:(-1) ~now:(Engine.now t.core.engine)
    in
    Resource.submit ~span:vspan thread
      ~cost:(Costmodel.sig_verify t.core.probe ~bytes:req.desc.op_size)
      (fun () ->
        state.sig_inflight <- false;
        if req.sig_valid then begin
          state.sig_checked <- true;
          if vspan >= 0 then state.span <- vspan;
          match lane with
          | Some _ ->
            propagate_request t req;
            maybe_dispatch t state
          | None ->
            let pspan =
              Probe.job t.core.probe ~parent:state.span ~tag:Tag.Propagate
                ~node:t.core.id ~instance:(-1) ~now:(Engine.now t.core.engine)
            in
            Resource.submit ~span:pspan t.propagation ~cost:(Time.ns 200)
              (fun () ->
                if pspan >= 0 then state.span <- pspan;
                propagate_request t req;
                maybe_dispatch t state)
        end
        else begin
          (* The request will never execute; its admission slot must
             not leak. *)
          Bftflow.Admission.release t.admission req.desc.id;
          if not (List.mem req.desc.id.client t.blacklist) then begin
            (* Invalid signature: blacklist the client (Sec. IV-B, step 1). *)
            if Probe.audit t.core.probe then
              audit t (Event.Blacklisted { client = req.desc.id.client });
            t.blacklist <- req.desc.id.client :: t.blacklist
          end
        end)
  end

(* Runs on the verification thread (MAC cost already charged). *)
let handle_client_request t ~span (req : Messages.request) =
  (* Drop paths must release any admission slot ingress triage granted
     before this handler ran; the release is a no-op when the request
     holds none. *)
  if t.faults.drop_client_requests then Bftflow.Admission.release t.admission req.desc.id
  else if List.mem req.desc.id.client t.blacklist then
    Bftflow.Admission.release t.admission req.desc.id
  else if List.mem t.core.id req.mac_invalid_for then
    (* The authenticator entry for this node is broken: drop. *)
    Bftflow.Admission.release t.admission req.desc.id
  else if Node_core.resend_reply t.core t.execution req.desc.id then
    (* Already executed: the reply was resent (Section IV-B, step 1). *)
    Bftflow.Admission.release t.admission req.desc.id
  else begin
    Probe.request_received t.core.probe t.m (Engine.now t.core.engine)
      ~client:req.desc.id.client ~rid:req.desc.id.rid ~size:req.desc.op_size;
    let state = request_state t req.desc.id in
    if state.span < 0 && span >= 0 then state.span <- span;
    if state.sig_checked then begin
      match t.rcc with
      | Some rcc ->
        let owner =
          Bftrcc.Partitioner.owner rcc.partitioner ~client:req.desc.id.client
        in
        Resource.submit t.replica_threads.(owner) ~cost:(Time.ns 200)
          (fun () -> propagate_request t req)
      | None ->
        Resource.submit t.propagation ~cost:(Time.ns 200) (fun () ->
            propagate_request t req)
    end
    else verify_signature_once t req
  end

(* Runs on the propagation thread (MAC cost already charged). *)
let handle_propagate t ~span ~from (req : Messages.request) ~junk =
  if junk then note_invalid_from t from
  else if
    (* With the request sweep on, a straggler PROPAGATE for a request
       whose tracking state was already swept must not resurrect it —
       the fresh state would never dispatch and so never be swept
       again. Gated on the sweep: without it, an executed id this node
       never tracked takes the tracked path, as it always has. A
       retired id is a no-op: its state had every flag set. *)
    t.params.Params.request_gc_age > Time.zero
    && (not (Request_id_table.mem t.requests req.desc.id))
    && Node_core.has_executed t.core req.desc.id
  then ()
  else if retired t req.desc.id then ()
  else begin
    let state = request_state t req.desc.id in
    if state.span < 0 && span >= 0 then state.span <- span;
    note_sender t state from (Some req);
    if state.sig_checked then begin
      if not state.propagated then propagate_request t req
    end
    else verify_signature_once t req
  end

(* ------------------------------------------------------------------ *)
(* Protocol instance change (Section IV-D)                            *)
(* ------------------------------------------------------------------ *)

(* Re-derive the current-cpi voter bitset from the per-node maxima;
   only runs when [t.cpi] advances. *)
let rebuild_ic_votes t =
  Pbftcore.Voteset.clear t.ic_votes;
  Array.iteri
    (fun node c -> if c >= t.cpi then ignore (Pbftcore.Voteset.add t.ic_votes node))
    t.ic_vote_cpi

let note_ic_vote t ~from ~cpi =
  if from >= 0 && from < n_nodes t && cpi > t.ic_vote_cpi.(from) then begin
    t.ic_vote_cpi.(from) <- cpi;
    if cpi >= t.cpi then ignore (Pbftcore.Voteset.add t.ic_votes from)
  end

let perform_instance_change t target_cpi =
  Probe.instance_changed t.core.probe t.m (Engine.now t.core.engine)
    ~instance:t.master_instance ~cpi:target_cpi ~recovery:false;
  t.cpi <- target_cpi + 1;
  t.instance_changes <- t.instance_changes + 1;
  t.last_change_at <- Engine.now t.core.engine;
  t.suspicious <- false;
  rebuild_ic_votes t;
  (* Concurrent ordering degrade path: Change_primaries rotates every
     primary, so any partition may momentarily be headless. Until each
     instance delivers in its new view, every primary also proposes
     the other partitions' requests (classic redundant fallback) —
     requests keep executing through the churn. *)
  (match (t.rcc, t.params.Params.recovery) with
   | Some rcc, Params.Change_primaries ->
     Array.iteri
       (fun i _ ->
         rcc.degrade_target.(i) <- Pbftcore.Replica.view t.replicas.(i) + 1;
         if not rcc.degraded.(i) then begin
           rcc.degraded.(i) <- true;
           if Probe.audit t.core.probe then
             audit t ~instance:i
               (Event.Degrade_changed { instance = i; active = true })
         end)
       rcc.degraded;
     rcc.quiet_until <-
       Time.add t.last_change_at (Time.mul_f Params.monitoring_period 4.0)
   | Some _, Params.Switch_master | None, _ -> ());
  match t.params.Params.recovery with
  | Params.Change_primaries ->
    Array.iter (fun r -> Pbftcore.Replica.force_view_change r) t.replicas
  | Params.Switch_master ->
    t.master_instance <- (t.master_instance + 1) mod instance_count t;
    Monitoring.set_master t.monitoring t.master_instance

(* The correct quorum is 2f+1; [faults.ic_quorum] is the mutation the
   model checker plants as a detectable protocol bug. *)
let ic_quorum t =
  match t.faults.ic_quorum with
  | Some q -> q
  | None -> (2 * t.params.Params.f) + 1

let check_ic_quorum t =
  if Pbftcore.Voteset.count t.ic_votes >= ic_quorum t then
    perform_instance_change t t.cpi

let send_instance_change t =
  if t.ic_sent_for < t.cpi then begin
    t.ic_sent_for <- t.cpi;
    note_ic_vote t ~from:t.core.id ~cpi:t.cpi;
    if Probe.audit t.core.probe then
      audit t ~instance:t.master_instance
        (Event.Instance_change_vote { cpi = t.cpi });
    Node_core.broadcast t.core t.dispatch
      (Messages.Instance_change { cpi = t.cpi });
    check_ic_quorum t
  end

let handle_instance_change t ~from ~cpi =
  if cpi >= t.cpi then begin
    note_ic_vote t ~from ~cpi;
    (* Vote along only if this node also observes the problem. *)
    if t.suspicious then send_instance_change t;
    check_ic_quorum t
  end

(* ------------------------------------------------------------------ *)
(* Ordered batches coming back from the replicas                      *)
(* ------------------------------------------------------------------ *)

let execute_request t ~span (desc : request_desc) =
  if not (Node_core.has_executed t.core desc.id) then begin
    let espan =
      Probe.job t.core.probe ~parent:span ~tag:Tag.Execution ~node:t.core.id
        ~instance:t.master_instance ~now:(Engine.now t.core.engine)
    in
    Resource.submit ~span:espan t.execution ~cost:(Node_core.exec_cost_of t.core desc)
      (fun () ->
        if not (Node_core.has_executed t.core desc.id) then begin
          let result = Node_core.apply t.core ~instance:t.master_instance desc in
          let state = Request_id_table.find_opt t.requests desc.id in
          if Probe.metrics t.core.probe then
            Probe.request_executed t.core.probe t.m
              ~dispatched:
                (match state with
                | Some state when state.dispatched -> Some state.dispatch_time
                | Some _ | None -> None)
              (Engine.now t.core.engine);
          Option.iter (retire_if_done t desc.id) state;
          Bftflow.Admission.release t.admission desc.id;
          Node_core.reply t.core t.execution ~span:espan desc.id result
        end)
  end

(* Concurrent ordering: the sequencer's emit callback. Every correct
   node merges the same per-instance streams in the same round-robin
   order, so executing here preserves the redundant mode's safety
   argument with the merge order as the global execution order. *)
let seq_emit t ~instance (b : seq_batch) =
  let now = Engine.now t.core.engine in
  List.iter
    (fun ((desc : request_desc), ospan) ->
      let sspan =
        Probe.span t.core.probe ~parent:ospan ~tag:Tag.Sequence ~node:t.core.id
          ~instance ~t0:b.sb_committed ~t1:now
      in
      execute_request t ~span:(if sspan >= 0 then sspan else ospan) desc)
    b.sb_descs

(* Monitoring's view of one instance ordering a dispatched request:
   its latency from [dispatch_time], and the master's λ/Ω checks. *)
let note_ordered_latency t ~instance ~is_master (desc : request_desc)
    (state : request_state) now =
  let latency = Time.sub now state.dispatch_time in
  Monitoring.note_latency t.monitoring ~instance ~client:desc.id.client latency;
  Probe.request_ordered t.core.probe t.m ~instance ~latency;
  (match t.latency_probe with
   | Some probe -> probe ~instance ~client:desc.id.client latency
   | None -> ());
  (* Requests dispatched before the last instance change were
     held by the previous primary; their latency says nothing
     about the current one. *)
  if is_master && state.dispatch_time >= t.last_change_at then begin
    let lambda = Monitoring.lambda_violation t.monitoring ~latency in
    let omega =
      Monitoring.omega_violation t.monitoring ~client:desc.id.client
    in
    if lambda || omega then begin
      if Probe.audit t.core.probe then begin
        if lambda then
          audit t ~instance
            (Event.Lambda_exceeded
               { client = desc.id.client; latency });
        if omega then
          audit t ~instance
            (Event.Omega_exceeded { client = desc.id.client })
      end;
      t.suspicious <- true;
      send_instance_change t
    end
  end

let on_ordered t ~instance ~seq descs =
  (* Runs on the dispatch & monitoring thread. *)
  Monitoring.note_ordered t.monitoring ~instance ~count:(List.length descs);
  let now = Engine.now t.core.engine in
  let is_master = instance = t.master_instance in
  let pairs = ref [] in
  List.iter
    (fun (desc : request_desc) ->
      (* Collect (and clear) the ordering-chain span recorded by this
         instance's replica; every instance must collect its own so the
         table drains, but only the master's parents execution. *)
      let ospan =
        if Probe.spans t.core.probe then
          Pbftcore.Replica.take_span t.replicas.(instance) ~id:desc.id
        else -1
      in
      (match Request_id_table.find_opt t.requests desc.id with
       | Some state ->
         state.ordered <- state.ordered + 1;
         if state.dispatched then
           note_ordered_latency t ~instance ~is_master desc state now;
         retire_if_done t desc.id state
       | None -> ());
      match t.rcc with
      | Some _ -> pairs := (desc, ospan) :: !pairs
      | None -> if is_master then execute_request t ~span:ospan desc)
    descs;
  match t.rcc with
  | None -> ()
  | Some rcc ->
    (* A delivery in (or past) the degrade-target view means the
       instance's new primary is proposing again: end the fallback. *)
    if rcc.degraded.(instance)
       && Pbftcore.Replica.view t.replicas.(instance)
          >= rcc.degrade_target.(instance)
       && not (Pbftcore.Replica.in_view_change t.replicas.(instance))
    then begin
      rcc.degraded.(instance) <- false;
      (* The verdict averages the last 3 windows; one extra covers the
         partially-contaminated window in flight. *)
      rcc.quiet_until <- Time.add now (Time.mul_f Params.monitoring_period 4.0);
      if Probe.audit t.core.probe then
        audit t ~instance
          (Event.Degrade_changed { instance; active = false })
    end;
    Bftrcc.Sequencer.push rcc.sequencer ~instance ~seq ~now
      { sb_descs = List.rev !pairs; sb_committed = now }

(* ------------------------------------------------------------------ *)
(* Replica hosting                                                    *)
(* ------------------------------------------------------------------ *)

let make_replica t ~instance ~hooks thread =
  let cfg =
    {
      Pbftcore.Replica.n = n_nodes t;
      f = t.params.Params.f;
      replica_id = t.core.id;
      instance;
      primary_of_view = (fun view -> Params.primary_of t.params ~instance ~view);
      batch_size = Params.batch_size;
      batch_delay = t.params.Params.batch_delay;
      checkpoint_interval = Params.checkpoint_interval;
      watermark_window = Params.watermark_window;
      order_full_requests = t.params.Params.order_full_requests;
      post_vc_quiet = t.params.Params.post_vc_quiet;
    }
  in
  let wrap msg = Messages.Instance { instance; msg } in
  let broadcast msg = Node_core.broadcast t.core thread (wrap msg) in
  let deliver seq descs =
    Resource.submit t.dispatch ~cost:(Time.ns 500) (fun () ->
        on_ordered t ~instance ~seq descs)
  in
  Pbftcore.Replica.create ~probe:t.core.probe ~clock:t.core.clock ~hooks t.core.engine cfg
    { Pbftcore.Replica.broadcast; deliver; on_view_change = (fun _ -> ()) }

(* ------------------------------------------------------------------ *)
(* Inbound routing                                                    *)
(* ------------------------------------------------------------------ *)

let on_delivery t ~from ~recv ~verify (d : Messages.t Network.delivery) =
  let base = Time.add recv verify in
  match d.Network.payload with
  | Messages.Request req ->
    (* Admission triage ({!Bftflow.Admission}) runs at ingress, in the
       NIC poll loop: the decision reads only the request id from the
       message header, before any worker-core job is queued. The gate
       exists to protect the verification stage — at saturation that
       thread is 100% busy on per-request MAC + signature checks, so a
       refusal must cost it nothing at all (an early drop in the
       receive path, XDP-style); charging even the receive demux to
       shed traffic would let a retry storm consume the very cycles
       the gate is defending. The BUSY reply is charged to the
       propagation thread, which has slack at saturation. Only
       requests this node has never seen compete for a slot: a request
       already tracked, already holding a slot, or already executed is
       in the pipeline (re-sent by a retrying client) or arrived by
       PROPAGATE from peers, and refusing it now would deadlock
       requests half-admitted across the cluster. Refusal creates no
       tracking state, so a later retry is genuinely fresh. *)
    let id = req.desc.id in
    let fresh =
      Bftflow.Admission.enabled t.admission
      && (not (Request_id_table.mem t.requests id))
      && (not (Bftflow.Admission.holds t.admission id))
      && (not (Node_core.has_executed t.core id))
      && not (List.mem id.client t.blacklist)
    in
    let verdict =
      if not fresh then Ok ()
      else
        Bftflow.Admission.admit t.admission id
          ~backlog:(Resource.backlog t.verification)
    in
    (match verdict with
     | Error retry_after -> busy_to t id retry_after
     | Ok () ->
       let vspan =
         Probe.job t.core.probe ~parent:d.Network.span ~tag:Tag.Crypto_verify
           ~node:t.core.id ~instance:(-1) ~now:(Engine.now t.core.engine)
       in
       Resource.submit ~span:vspan t.verification ~cost:base (fun () ->
           handle_client_request t ~span:vspan req))
  | Messages.Propagate { req; junk } ->
    let pspan =
      Probe.job t.core.probe ~parent:d.Network.span ~tag:Tag.Propagate ~node:t.core.id
        ~instance:(-1) ~now:(Engine.now t.core.engine)
    in
    (* In concurrent mode correct nodes send PROPAGATE-BATCH, so a
       single PROPAGATE is flood/junk traffic: charge it to the
       ingress (verification) thread it actually chokes. *)
    let thread =
      match t.rcc with Some _ -> t.verification | None -> t.propagation
    in
    Resource.submit ~span:pspan thread ~cost:base (fun () ->
        handle_propagate t ~span:pspan ~from req ~junk)
  | Messages.Propagate_batch { reqs; owner } ->
    (* Ingress demux reads the bytes on the verification thread; the
       batch authenticator and the per-request work are charged to the
       claimed owner's lane. The partitioner re-derives the real owner
       per request, so a lying [owner] field only misdirects CPU cost,
       never partition membership. *)
    Resource.submit t.verification ~cost:recv (fun () ->
        if owner >= 0 && owner < instance_count t then
          Resource.submit t.replica_threads.(owner) ~cost:verify (fun () ->
              List.iter
                (fun req -> handle_propagate t ~span:(-1) ~from req ~junk:false)
                reqs))
  | Messages.Instance { instance; msg } ->
    if instance < instance_count t then begin
      Resource.submit t.replica_threads.(instance) ~cost:base (fun () ->
          Pbftcore.Replica.receive t.replicas.(instance) ~from msg)
    end
  | Messages.Instance_change { cpi } ->
    Resource.submit t.dispatch ~cost:base (fun () ->
        handle_instance_change t ~from ~cpi)
  | Messages.Reply _ | Messages.Busy _ -> (* nodes never receive replies *) ()

(* ------------------------------------------------------------------ *)
(* Monitoring loop and flooding processes                             *)
(* ------------------------------------------------------------------ *)

let monitoring_tick t =
  let verdict = Monitoring.tick t.monitoring ~now:(Engine.now t.core.engine) in
  Array.fill t.invalid_counts 0 (Array.length t.invalid_counts) 0;
  (* Request-table sweep ({!Params.request_gc_age} > 0), the backstop
     for state [retire_if_done] never retires: dispatched and executed
     state past the age is pure history. *)
  (let age = t.params.Params.request_gc_age in
   if age > Time.zero then begin
     let now = Engine.now t.core.engine in
     let stale =
       Request_id_table.fold
         (fun id rs acc ->
           if
             rs.dispatched
             && Node_core.has_executed t.core id
             && Time.sub now rs.first_seen >= age
           then id :: acc
           else acc)
         t.requests []
     in
     List.iter (fun id -> Request_id_table.remove t.requests id) stale
   end);
  Probe.monitor_verdict t.core.probe t.m (Engine.now t.core.engine)
    ~instance:t.master_instance ~master_rate:verdict.Monitoring.master_rate
    ~backup_rate:verdict.Monitoring.backup_rate
    ~ratio:verdict.Monitoring.ratio ~delta:t.params.Params.delta
    ~suspicious:verdict.Monitoring.suspicious;
  (* Concurrent ordering: while any partition is degraded (and until
     the moving windows flush the fallback samples) every instance
     orders foreign requests, so the normalized Δ comparison is not
     measuring per-partition service — mute it rather than demote on
     our own fallback traffic. The stall check below stays live: it is
     what escalates past a dead incoming primary. *)
  let delta_muted =
    match t.rcc with
    | None -> false
    | Some rcc ->
      Array.exists Fun.id rcc.degraded
      || Engine.now t.core.engine < rcc.quiet_until
  in
  t.suspicious <- verdict.Monitoring.suspicious && not delta_muted;
  if t.suspicious then begin
    (* Allow re-voting for the current cpi each period while the
       problem persists. *)
    if t.ic_sent_for >= t.cpi then t.ic_sent_for <- t.cpi - 1;
    send_instance_change t
  end;
  (* Concurrent ordering: sample the merge sequencer's head-of-line
     state, and treat a long stall as grounds for an instance change —
     a crashed partition owner produces no batches at all, which the Δ
     rate comparison cannot see. All correct nodes observe the same
     stall, so the 2f+1 vote quorum forms. *)
  match t.rcc with
  | None -> ()
  | Some rcc ->
    let now = Engine.now t.core.engine in
    let stall = Bftrcc.Sequencer.stall rcc.sequencer ~now in
    if Probe.audit t.core.probe then begin
      let st = Bftrcc.Sequencer.stats rcc.sequencer in
      let waiting_on, age =
        match stall with Some (i, a) -> (i, a) | None -> (-1, Time.zero)
      in
      audit t
        (Event.Seq_stall
           { waiting_on; age; pending = st.Bftrcc.Sequencer.pending })
    end;
    (match stall with
     | Some (_, age) when age >= Params.stall_change ->
       t.suspicious <- true;
       if t.ic_sent_for >= t.cpi then t.ic_sent_for <- t.cpi - 1;
       send_instance_change t
     | Some _ | None -> ())

let rec arm_monitoring t =
  ignore
    (Clock.after t.core.clock Params.monitoring_period (fun () ->
         Resource.submit t.dispatch ~cost:(Time.us 2) (fun () -> monitoring_tick t);
         arm_monitoring t))

(* The flooding loop re-reads the fault configuration on every tick,
   so attacks can be switched on and off at any virtual time. *)
let start_flooding t =
  (* One junk op and digest for the whole flood, built when the first
     flood tick fires; each message stamps its target and the maximal
     request size, 9,000 bytes, onto it. *)
  let junk = lazy (desc_of_op ~client:(-1) ~rid:0 "junk") in
  let junk_msg target =
    Messages.Propagate
      {
        req =
          {
            desc =
              { (Lazy.force junk) with
                id = { client = -1; rid = target };
                op_size = 9_000 };
            sig_valid = false;
            mac_invalid_for = [];
          };
        junk = true;
      }
  in
  let rec loop () =
    let rate = t.faults.flood_rate in
    let period =
      if rate > 0.0 then Time.of_sec_f (1.0 /. rate) else Time.ms 10
    in
    ignore
      (Clock.after t.core.clock period (fun () ->
           if t.faults.flood_rate > 0.0 then
             List.iter
               (fun target ->
                 let msg = junk_msg target in
                 let size = msg_size t.params msg in
                 Network.send t.core.net ~src:t.core.self ~dst:(Principal.node target)
                   ~size msg)
               t.faults.flood_targets;
           loop ()))
  in
  loop ()

let create engine net params ~id ~service =
  let reg = Probe.registry (Network.probe net) in
  let instances = Params.instances params in
  let core =
    Node_core.create engine net ~id ~n:(Params.n params) ~service
      ~name:(Printf.sprintf "n%d" id) ~size:(msg_size params)
      ~cost_bytes:(cost_bytes params) ~scheme:Node_core.Mac ~authenticate_replies:true
      ~node_only:(function
        | Messages.Request _ | Messages.Reply _ | Messages.Busy _ -> false
        | Messages.Propagate _ | Messages.Propagate_batch _ | Messages.Instance _
        | Messages.Instance_change _ ->
          true)
      ~reply:(fun id result -> Messages.Reply { id; result })
  in
  let t =
    {
      core;
      params;
      verification = Node_core.thread core "verification";
      propagation = Node_core.thread core "propagation";
      dispatch = Node_core.thread core "dispatch";
      execution = Node_core.thread core "execution";
      admission = Bftflow.Admission.create ~budget:params.Params.admission_budget;
      replica_threads =
        Array.init instances (fun i ->
            Node_core.thread core (Printf.sprintf "replica%d" i));
      replicas = [||];
      faults =
        {
          flood_targets = [];
          flood_rate = 0.0;
          no_propagate = false;
          drop_client_requests = false;
          ic_quorum = None;
        };
      monitoring = Monitoring.create params;
      requests = Request_id_table.create 4096;
      retired = Idset.create ();
      tracked_peak = 0;
      fp_requests = None;
      blacklist = [];
      cpi = 0;
      suspicious = false;
      ic_vote_cpi = Array.make (Params.n params) (-1);
      ic_votes = Pbftcore.Voteset.create ~n:(Params.n params);
      ic_sent_for = -1;
      instance_changes = 0;
      last_change_at = Time.zero;
      master_instance = Params.master_instance;
      invalid_counts = Array.make (Params.n params) 0;
      latency_probe = None;
      started = false;
      rcc = None;
      m = Probe.node_metrics (Network.probe net) ~node:id ~instances;
    }
  in
  (match params.Params.ordering with
   | Params.Redundant -> ()
   | Params.Concurrent ->
     t.rcc <-
       Some
         {
           partitioner = Bftrcc.Partitioner.create ~instances;
           sequencer =
             Bftrcc.Sequencer.create ~instances ~emit:(fun ~instance ~seq:_ b ->
                 seq_emit t ~instance b);
           degraded = Array.make instances false;
           degrade_target = Array.make instances 0;
           quiet_until = Time.zero;
           prop_buf = Array.make instances [];
           prop_len = Array.make instances 0;
           prop_timer = Array.make instances false;
         });
  (* Adaptive batching ({!Bftflow.Batcher}): each replica's flush asks
     a planner seeded with the static config point and probing the
     stage that actually backs up — the verification thread feeding
     the pipeline, plus the replica's own lane. *)
  let planner =
    if params.Params.adaptive_batching then
      Some
        (Bftflow.Batcher.make ~batch_size:Params.batch_size
           ~batch_delay:params.Params.batch_delay)
    else None
  in
  let hooks i =
    let lane = t.replica_threads.(i) in
    let batch_tuner =
      Option.map
        (fun planner () ->
          let backlog =
            Time.max (Resource.backlog t.verification) (Resource.backlog lane)
          in
          let depth = Resource.depth t.verification + Resource.depth lane in
          Bftflow.Batcher.plan planner ~backlog ~depth)
        planner
    in
    match t.rcc with
    | None -> { Pbftcore.Replica.no_hooks with batch_tuner }
    | Some rcc ->
      (* Each replica proposes only its own partition (plus any degraded
         ones), and keeps its stream flowing with no-op heartbeats when
         its partition is idle, so the round-robin merge never waits on
         a healthy instance. The heartbeat is gated on the local merge
         backlog: an idle stream must not run ahead of a loaded one, or
         its own later real batches queue behind the accumulated no-ops
         and the light partition's latency grows without bound. *)
      {
        Pbftcore.Replica.batch_filter =
          Some
            (fun (desc : request_desc) ->
              let owner =
                Bftrcc.Partitioner.owner rcc.partitioner ~client:desc.id.client
              in
              owner = i || rcc.degraded.(owner));
        batch_tuner;
        noop_interval = Params.noop_interval;
        noop_gate =
          Some (fun () -> Bftrcc.Sequencer.backlog rcc.sequencer ~instance:i = 0);
      }
  in
  t.replicas <-
    Array.init instances (fun i ->
        make_replica t ~instance:i ~hooks:(hooks i) t.replica_threads.(i));
  (match t.rcc with
   | None -> ()
   | Some { sequencer; _ } ->
     Registry.gauge_fn reg
       "bft_seq_pending_batches"
       ~help:"Committed batches queued behind the merge head-of-line"
       ~labels:[ ("node", string_of_int id) ]
       (fun () ->
         float_of_int
           (Bftrcc.Sequencer.stats sequencer).Bftrcc.Sequencer.pending);
     Registry.gauge_fn reg
       "bft_seq_stall_age_seconds"
       ~help:"Age of the merge sequencer's head-of-line stall (0 = none)"
       ~labels:[ ("node", string_of_int id) ]
       (fun () ->
         match Bftrcc.Sequencer.stall sequencer ~now:(Engine.now engine) with
         | Some (_, age) -> Time.to_sec_f age
         | None -> 0.0));
  if Bftflow.Admission.enabled t.admission then begin
    Registry.gauge_fn reg
      "bft_admission_inflight"
      ~help:"Admitted client requests currently in flight"
      ~labels:[ ("node", string_of_int id) ]
      (fun () -> float_of_int (Bftflow.Admission.inflight t.admission));
    Registry.gauge_fn reg
      "bft_admission_shed_total"
      ~help:"Client requests answered BUSY by the admission gate"
      ~labels:[ ("node", string_of_int id) ]
      (fun () -> float_of_int (Bftflow.Admission.shed_total t.admission))
  end;
  (* Queue-depth gauges are callback-backed: read only at sample or
     export time, so the module threads pay nothing. *)
  List.iter
    (fun (name, r) ->
      Registry.gauge_fn reg
        "bft_thread_backlog"
        ~help:
          "Work a node module thread still has to do, in virtual nanoseconds: \
           the rest of the job in service plus every queued job"
        ~labels:[ ("node", string_of_int id); ("thread", name) ]
        (fun () -> float_of_int (Resource.backlog r));
      Registry.gauge_fn reg
        "bft_thread_depth"
        ~help:"Jobs waiting in a node module thread's queue"
        ~labels:[ ("node", string_of_int id); ("thread", name) ]
        (fun () -> float_of_int (Resource.depth r)))
    ([
       ("verification", t.verification);
       ("propagation", t.propagation);
       ("dispatch", t.dispatch);
       ("execution", t.execution);
     ]
    @ Array.to_list
        (Array.mapi
           (fun i r -> (Printf.sprintf "replica%d" i, r))
           t.replica_threads));
  (* Footprints over every O(clients) /
     O(history) table this node owns. Entries closures are O(1); deep
     byte measurement only ever happens at snapshot time. *)
  (let owner = Printf.sprintf "node-%d" id in
   t.fp_requests <-
     Some
       (Probe.footprint t.core.probe ~owner ~name:"node.requests"
          ~entries:(fun () -> Request_id_table.length t.requests)
          ~root:(fun () -> Some (Obj.repr t.requests))
          ());
   ignore
     (Probe.footprint t.core.probe ~owner ~name:"node.retired"
        ~entries:(fun () -> Idset.range_count t.retired)
        ~root:(fun () -> Some (Obj.repr t.retired))
        ());
   ignore
     (Probe.footprint t.core.probe ~owner ~name:"node.reply_cache"
        ~entries:(fun () -> Pbftcore.Replycache.clients t.core.executed)
        ~root:(fun () -> Some (Obj.repr t.core.executed))
        ());
   Bftflow.Admission.register_probes t.admission t.core.probe ~owner;
   Monitoring.register_probes t.monitoring t.core.probe ~owner;
   Array.iteri
     (fun i r ->
       Pbftcore.Replica.register_probes r
         ~owner:(Printf.sprintf "%s/i%d" owner i))
     t.replicas);
  (* Chaos-corrupted on the wire, or a node message from a client: the
     authenticator check fails. The node still pays the verification
     cost, and invalid traffic from a peer node feeds the flood defence
     exactly like junk messages. *)
  Node_core.listen core ~forged_on:t.verification ~on_forged:(note_invalid_from t)
    (on_delivery t);
  t

let set_latency_probe t probe = t.latency_probe <- Some probe

let start t =
  if not t.started then begin
    t.started <- true;
    arm_monitoring t;
    start_flooding t
  end

(* Canonical digest input for the model checker's visited-state set.
   Everything that constrains which protocol actions are still possible
   is rendered in a fixed order; virtual-time values (first_seen,
   dispatch_time, last_change_at), spans and metric handles are
   deliberately left out so that states reached by commuted independent
   deliveries compare equal. *)
let mc_fingerprint t =
  let buf = Buffer.create 1024 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  let hex_short s =
    if s = "" then "-"
    else
      let h = Sha256.to_hex s in
      if String.length h > 12 then String.sub h 0 12 else h
  in
  add "n%d cpi=%d mi=%d susp=%b sent=%d chg=%d;" t.core.id t.cpi t.master_instance
    t.suspicious t.ic_sent_for t.instance_changes;
  add "icv=%s #%d;"
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.ic_vote_cpi)))
    (Pbftcore.Voteset.count t.ic_votes);
  add "exec=%d/%s;" (executed_count t) (hex_short (execution_digest t));
  add "bl=%s;"
    (String.concat "," (List.map string_of_int (List.sort compare t.blacklist)));
  add "inv=%s;"
    (String.concat ","
       (Array.to_list (Array.map string_of_int t.invalid_counts)));
  (match t.rcc with
   | Some rcc ->
     let st = Bftrcc.Sequencer.stats rcc.sequencer in
     add "rcc{m=%d r=%d p=%d g=%d deg=%s};" st.Bftrcc.Sequencer.merged
       st.Bftrcc.Sequencer.rounds st.Bftrcc.Sequencer.pending
       st.Bftrcc.Sequencer.gaps
       (String.concat ""
          (Array.to_list
             (Array.map (fun b -> if b then "1" else "0") rcc.degraded)))
   | None -> ());
  Request_id_table.fold (fun id rs acc -> (id, rs) :: acc) t.requests []
  |> List.sort (fun (a, _) (b, _) -> compare_request_id a b)
  |> List.iter (fun (id, rs) ->
         add "r%d/%d{s=%s p=%b v=%b%b d=%b q=%b};" id.client id.rid
           (String.concat ","
              (List.map string_of_int (Pbftcore.Voteset.to_list rs.senders)))
           rs.propagated rs.sig_checked rs.sig_inflight rs.dispatched
           (rs.req <> None));
  Idset.fold (fun id acc -> id :: acc) t.retired []
  |> List.sort compare_request_id
  |> List.iter (fun id -> add "R%d/%d;" id.client id.rid);
  Pbftcore.Replycache.fold_ids
    (fun ~client ~rid acc -> { client; rid } :: acc)
    t.core.executed []
  |> List.sort compare_request_id
  |> List.iter (fun id -> add "x%d/%d;" id.client id.rid);
  Array.iteri
    (fun i r -> add "I%d[%s]" i (Pbftcore.Replica.fingerprint r))
    t.replicas;
  Buffer.contents buf
