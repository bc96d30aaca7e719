open Dessim
open Types
module Probe = Bftmetrics.Probe
module Event = Bftmetrics.Event

type config = {
  n : int;
  f : int;
  replica_id : int;
  instance : int;  (* protocol instance id for audit events (RBFT runs f+1) *)
  primary_of_view : view -> int;
  batch_size : int;
  batch_delay : Time.t;
  checkpoint_interval : int;
  watermark_window : int;
  order_full_requests : bool;
  post_vc_quiet : Time.t;
}

let default_config ~n ~f ~replica_id =
  {
    n;
    f;
    replica_id;
    instance = 0;
    primary_of_view = (fun v -> v mod n);
    batch_size = 64;
    batch_delay = Time.ms 2;
    checkpoint_interval = 128;
    watermark_window = 256;
    order_full_requests = false;
    post_vc_quiet = Time.zero;
  }

type callbacks = {
  send : int -> Messages.t -> unit;
  broadcast : Messages.t -> unit;
  deliver : seqno -> request_desc list -> unit;
  on_view_change : view -> unit;
}

type adversary = {
  mutable silent : bool;
  mutable pp_extra_delay : unit -> Time.t;
  mutable pp_rate_limit : unit -> float;
  mutable client_hold : request_id -> Time.t;
}

type entry = {
  mutable pp : Messages.pre_prepare option;
  mutable pp_view : view;
  mutable digest : string;
  (* Votes are stored with the digest they endorse: votes may arrive
     before the PRE-PREPARE fixes the batch digest, and only matching
     ones count towards the quorums (tracked incrementally by the
     tagged vote sets). *)
  prepares : Voteset.Tagged.t;
  commits : Voteset.Tagged.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable delivered : bool;
  (* Phase timestamps for latency metrics: when the PRE-PREPARE fixed
     the batch digest locally, and when this replica sent its COMMIT
     (the prepared point). Always set before delivery. *)
  mutable t_pp : Time.t;
  mutable t_prepared : Time.t;
}

type t = {
  engine : Engine.t;
  clock : Clock.t;  (* local timers; scalable by the chaos engine *)
  cfg : config;
  cb : callbacks;
  adv : adversary;
  mutable view : view;
  mutable in_vc : bool;
  (* Highest view this replica has voted a view change for. A view
     change can wedge when the target view's primary is faulty (it
     never sends NEW-VIEW); a later [force_view_change] must then
     escalate PAST the wedged target rather than re-vote it, or the
     instance never leaves [in_vc]. *)
  mutable vc_target : view;
  mutable vc_completed : int;
  entries : (seqno, entry) Hashtbl.t;
  known : request_desc Request_id_table.t;  (* submitted, available for ordering *)
  delivered_ids : unit Request_id_table.t;
  mutable pending_batch : request_desc list;  (* primary: reversed accumulation *)
  mutable pending_len : int;  (* length of [pending_batch], kept in step *)
  mutable batch_timer : Engine.timer option;
  (* Concurrent (bftrcc) mode: a primary only proposes requests the
     filter admits (its own partition, plus degraded partitions). The
     filter is a node-owned closure so degrade-path changes apply
     without reconfiguring the replica. *)
  mutable batch_filter : (request_desc -> bool) option;
  (* Concurrent mode: an idle primary orders an empty no-op heartbeat
     batch after this long without a pre-prepare, keeping the global
     round-robin merge flowing. [Time.zero] (the default) disables the
     heartbeat entirely — no timer is ever armed. *)
  mutable noop_interval : Time.t;
  (* Pacing brake for the heartbeat: when the gate returns false the
     idle primary holds its no-op. The hosting node points this at its
     merge sequencer so a stream already ahead of the round-robin
     cursor stops inflating the queue every later real batch of the
     stream would have to sit behind. *)
  mutable noop_gate : (unit -> bool) option;
  (* Adaptive batching ({!Bftflow.Batcher}): when set, each flush asks
     the tuner for the (batch size, flush delay) to use instead of the
     static config values. Node-owned closure, like [batch_filter], so
     the policy can probe node-level resources the replica never sees.
     Timing-only: deliberately absent from [fingerprint]. *)
  mutable batch_tuner : (unit -> int * Time.t) option;
  mutable last_pp_at : Time.t;
  mutable next_seq : seqno;  (* primary: next seq to assign *)
  mutable next_deliver : seqno;
  mutable last_stable : seqno;
  mutable chain_digest : string;
  (* checkpoint votes per seq: digest -> voters (few digests per seq) *)
  checkpoints : (seqno, (string * Voteset.t) list ref) Hashtbl.t;
  (* view-change votes: target view -> voters (messages are re-derived
     from local state, never read back from the votes) *)
  vc_votes : (view, Voteset.t) Hashtbl.t;
  (* prepared certificates carried by received VIEW-CHANGE messages,
     keyed (target view, sender). A primary taking over reads these
     back: per sequence number it must re-propose the certificate with
     the highest view across the 2f+1 VIEW-CHANGEs, not whatever its
     local log happens to hold — a batch committed at some replica is
     prepared at 2f+1, so every vote quorum contains a copy of its
     certificate and the new view cannot displace it. *)
  vc_proofs : (view * int, Messages.prepared_proof list) Hashtbl.t;
  mutable ordered_count : int;
  mutable state_transfers : int;
  mutable pp_release : Time.t;  (* pacing floor for adversarial PP delays *)
  (* PPs held because some requests are not yet known locally *)
  mutable waiting_pps : Messages.pre_prepare list;
  (* Traced requests: parent span id + submission instant, keyed by
     request id; consumed at delivery to emit the batch-wait / prepare /
     commit phase spans, then replaced by the commit span id until the
     hosting node collects it with [take_span]. Only sampled requests
     ever enter the table. *)
  span_in : (int * Time.t) Request_id_table.t;
  probe : Probe.t;
  m : Probe.replica_metrics;
}

let create ~probe ?clock engine cfg cb =
  {
    engine;
    clock = (match clock with Some c -> c | None -> Clock.create engine);
    cfg;
    cb;
    adv =
      {
        silent = false;
        pp_extra_delay = (fun () -> Time.zero);
        pp_rate_limit = (fun () -> 0.0);
        client_hold = (fun _ -> Time.zero);
      };
    view = 0;
    in_vc = false;
    vc_target = 0;
    vc_completed = 0;
    entries = Hashtbl.create 512;
    known = Request_id_table.create 1024;
    delivered_ids = Request_id_table.create 4096;
    pending_batch = [];
    pending_len = 0;
    batch_timer = None;
    batch_filter = None;
    batch_tuner = None;
    noop_interval = Time.zero;
    noop_gate = None;
    last_pp_at = Time.zero;
    next_seq = 1;
    next_deliver = 1;
    last_stable = 0;
    chain_digest = "genesis";
    checkpoints = Hashtbl.create 16;
    vc_votes = Hashtbl.create 8;
    vc_proofs = Hashtbl.create 8;
    ordered_count = 0;
    state_transfers = 0;
    pp_release = Time.zero;
    waiting_pps = [];
    span_in = Request_id_table.create 64;
    probe;
    m = Probe.replica_metrics probe ~node:cfg.replica_id ~instance:cfg.instance;
  }

let config t = t.cfg
let adversary t = t.adv
let last_pp_at t = t.last_pp_at
let view t = t.view
let current_primary t = t.cfg.primary_of_view t.view
let is_primary t = current_primary t = t.cfg.replica_id
let in_view_change t = t.in_vc
let ordered_count t = t.ordered_count
let last_delivered_seq t = t.next_deliver - 1
let view_changes_completed t = t.vc_completed

let pending_count t =
  Request_id_table.fold
    (fun id _ acc ->
      if Request_id_table.mem t.delivered_ids id then acc else acc + 1)
    t.known 0

let entry_for t seq =
  match Hashtbl.find_opt t.entries seq with
  | Some e -> e
  | None ->
    let e =
      {
        pp = None;
        pp_view = -1;
        digest = "";
        prepares = Voteset.Tagged.create ~n:t.cfg.n;
        commits = Voteset.Tagged.create ~n:t.cfg.n;
        sent_prepare = false;
        sent_commit = false;
        delivered = false;
        t_pp = Time.zero;
        t_prepared = Time.zero;
      }
    in
    Hashtbl.add t.entries seq e;
    e

let in_window t seq =
  seq > t.last_stable && seq <= t.last_stable + t.cfg.watermark_window

(* Quorum counting: once the PRE-PREPARE has fixed the batch digest,
   only votes endorsing it count; before that, count provisionally.
   Both cases are O(1) field reads on the tagged vote sets; fixing the
   digest re-anchors them. *)
let set_entry_digest (e : entry) digest =
  e.digest <- digest;
  Voteset.Tagged.set_reference e.prepares digest;
  Voteset.Tagged.set_reference e.commits digest

(* ------------------------------------------------------------------ *)
(* Delivery and checkpoints                                           *)
(* ------------------------------------------------------------------ *)

let audit t kind =
  Probe.emit_at t.probe (Engine.now t.engine) ~node:t.cfg.replica_id
    ~instance:t.cfg.instance kind

let audit_pp t ~view (pp : Messages.pre_prepare) =
  audit t
    (Event.Pre_prepare_sent
       {
         view;
         seq = pp.seq;
         count = List.length pp.descs;
         digest = Messages.batch_digest pp.descs;
       })

(* Audit events for outgoing protocol messages are emitted here, inside
   the silence gate, so a muted Byzantine replica's suppressed votes
   never enter the audit record. *)
let audit_msg t (msg : Messages.t) =
  match msg with
  | Messages.Pre_prepare pp -> audit_pp t ~view:pp.view pp
  | Messages.Prepare { view; seq; digest; _ } ->
    audit t (Event.Prepare_sent { view; seq; digest })
  | Messages.Commit { view; seq; digest; _ } ->
    audit t (Event.Commit_sent { view; seq; digest })
  | Messages.Checkpoint { seq; state_digest; _ } ->
    audit t (Event.Checkpoint_sent { seq; digest = state_digest })
  | Messages.View_change { new_view; _ } ->
    audit t (Event.View_change_sent { view = new_view })
  | Messages.New_view { view; pre_prepares; _ } ->
    (* The new primary's re-proposals stand for its pre-prepares. *)
    List.iter (audit_pp t ~view) pre_prepares

let broadcast t msg =
  if not t.adv.silent then begin
    if Probe.audit t.probe then audit_msg t msg;
    t.cb.broadcast msg
  end

(* Collect the doomed keys first, then remove: [Hashtbl.remove] during
   [Hashtbl.iter] is undefined, and the previous [Hashtbl.copy] of both
   whole tables allocated a full copy on every stable checkpoint. *)
let remove_keys_below table seq =
  let doomed =
    Hashtbl.fold (fun s _ acc -> if s <= seq then s :: acc else acc) table []
  in
  List.iter (Hashtbl.remove table) doomed

let gc_below t seq =
  remove_keys_below t.entries seq;
  remove_keys_below t.checkpoints seq

let accept_checkpoint t ~from ~seq ~state_digest =
  if seq > t.last_stable then begin
    let votes =
      match Hashtbl.find_opt t.checkpoints seq with
      | Some v -> v
      | None ->
        let v = ref [] in
        Hashtbl.add t.checkpoints seq v;
        v
    in
    let voters =
      match List.assoc_opt state_digest !votes with
      | Some voters -> voters
      | None ->
        let voters = Voteset.create ~n:t.cfg.n in
        votes := (state_digest, voters) :: !votes;
        voters
    in
    ignore (Voteset.add voters from);
    if Voteset.count voters >= (2 * t.cfg.f) + 1 then begin
      t.last_stable <- seq;
      if Probe.audit t.probe then
        audit t (Event.Checkpoint_stable { seq; digest = state_digest });
      (* State transfer: a replica that lags behind a stable checkpoint
         (e.g. a view change purged its in-flight quorum state) adopts
         the checkpointed state instead of waiting for batches nobody
         will re-send. Skipped batches are not delivered locally — the
         state arrives wholesale, as in PBFT's state transfer. *)
      if t.next_deliver <= seq then begin
        t.next_deliver <- seq + 1;
        t.chain_digest <- state_digest;
        t.state_transfers <- t.state_transfers + 1
      end;
      (* A primary whose sequence counter fell behind the watermark
         floor could never issue a batch again. *)
      if t.next_seq <= seq then t.next_seq <- seq + 1;
      gc_below t seq
    end
  end

(* A replica's own checkpoint counts towards the 2f+1 quorum. *)
let take_checkpoint t seq =
  broadcast t (Messages.Checkpoint { seq; state_digest = t.chain_digest });
  accept_checkpoint t ~from:t.cfg.replica_id ~seq ~state_digest:t.chain_digest

(* Per-sampled-request ordering phases, derived from the entry's phase
   stamps at the moment the batch is delivered. Timestamps are clamped
   monotonic: a backup can learn a request *from* the PRE-PREPARE, in
   which case submission follows t_pp. The chain batch-wait -> prepare
   -> commit keeps the tree linear; the commit span id is left in
   [span_in] for the hosting node ([take_span]) to parent execution. *)
let record_phase_spans t (e : entry) fresh =
  let now = Engine.now t.engine in
  let node = t.cfg.replica_id and instance = t.cfg.instance in
  List.iter
    (fun d ->
      match Request_id_table.find_opt t.span_in d.id with
      | None -> ()
      | Some (parent, t_sub) ->
        let t_pp = Time.max e.t_pp t_sub in
        let t_prep = Time.min now (Time.max e.t_prepared t_pp) in
        let b =
          Probe.span t.probe ~parent ~tag:Batch_wait ~node ~instance ~t0:t_sub ~t1:t_pp
        in
        let pr =
          Probe.span t.probe ~parent:b ~tag:Prepare ~node ~instance ~t0:t_pp ~t1:t_prep
        in
        let cm =
          Probe.span t.probe ~parent:pr ~tag:Commit ~node ~instance ~t0:t_prep ~t1:now
        in
        Request_id_table.replace t.span_in d.id (cm, now))
    fresh

let take_span t ~id =
  match Request_id_table.find_opt t.span_in id with
  | None -> -1
  | Some (span, _) ->
    Request_id_table.remove t.span_in id;
    span

let rec try_deliver t =
  match Hashtbl.find_opt t.entries t.next_deliver with
  | Some e when e.delivered ->
    t.next_deliver <- t.next_deliver + 1;
    try_deliver t
  | Some ({ pp = Some pp; _ } as e)
    when Voteset.Tagged.matching e.commits >= (2 * t.cfg.f) + 1 && e.sent_commit ->
    e.delivered <- true;
    let seq = t.next_deliver in
    t.next_deliver <- t.next_deliver + 1;
    (* Filter requests already delivered under an earlier sequence
       number (can happen when a view change re-proposes a batch). *)
    let fresh =
      List.filter
        (fun d -> not (Request_id_table.mem t.delivered_ids d.id))
        pp.descs
    in
    List.iter (fun d -> Request_id_table.replace t.delivered_ids d.id ()) fresh;
    let count = List.length fresh in
    t.ordered_count <- t.ordered_count + count;
    if Probe.spans t.probe then record_phase_spans t e fresh;
    Probe.batch_ordered t.probe t.m (Engine.now t.engine) ~seq ~count ~digest:e.digest
      ~t_pp:e.t_pp ~t_prepared:e.t_prepared;
    t.chain_digest <-
      Bftcrypto.Sha256.digest_string (t.chain_digest ^ Messages.batch_digest pp.descs);
    t.cb.deliver seq fresh;
    if seq mod t.cfg.checkpoint_interval = 0 then take_checkpoint t seq;
    try_deliver t
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Primary batching                                                   *)
(* ------------------------------------------------------------------ *)

let cancel_batch_timer t =
  match t.batch_timer with
  | Some timer ->
    Engine.cancel timer;
    t.batch_timer <- None
  | None -> ()

let maybe_send_commit t seq (e : entry) =
  if
    (not e.sent_commit) && e.sent_prepare
    && Voteset.Tagged.matching e.prepares >= 2 * t.cfg.f
  then begin
    e.sent_commit <- true;
    e.t_prepared <- Engine.now t.engine;
    ignore (Voteset.Tagged.add e.commits ~replica:t.cfg.replica_id ~digest:e.digest);
    broadcast t (Messages.Commit { view = t.view; seq; digest = e.digest });
    try_deliver t
  end

let record_pp t (pp : Messages.pre_prepare) =
  let e = entry_for t pp.seq in
  e.pp <- Some pp;
  e.pp_view <- pp.view;
  set_entry_digest e (Messages.batch_digest pp.descs);
  e.t_pp <- Engine.now t.engine

(* Effective (batch size, flush delay) for the next flush: the static
   config values, or the tuner's live plan when one is installed. *)
let batch_plan t =
  match t.batch_tuner with
  | None -> (t.cfg.batch_size, t.cfg.batch_delay)
  | Some tune ->
    let size, delay = tune () in
    (Stdlib.max 1 size, delay)

let rec flush_batch t =
  cancel_batch_timer t;
  (* [is_primary]: a lingering batch timer on a replica demoted by a
     completed view change must not flush and broadcast a stale batch. *)
  if t.pending_len > 0 && (not t.in_vc) && is_primary t && in_window t t.next_seq
  then begin
    let batch_size, _ = batch_plan t in
    let descs = List.rev t.pending_batch in
    (* The running [pending_len] replaces the [List.length] walks the
       old accounting performed per flush (and per enqueued request in
       [maybe_batch]). *)
    let batch_len = Stdlib.min t.pending_len batch_size in
    let batch, rest =
      if t.pending_len <= batch_size then (descs, [])
      else
        let rec split i acc = function
          | [] -> (List.rev acc, [])
          | l when i = 0 -> (List.rev acc, l)
          | x :: tl -> split (i - 1) (x :: acc) tl
        in
        split batch_size [] descs
    in
    t.pending_batch <- List.rev rest;
    t.pending_len <- t.pending_len - batch_len;
    Probe.batch_flushed t.probe t.m ~size:batch_len;
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let pp = { Messages.view = t.view; seq; descs = batch } in
    record_pp t pp;
    t.last_pp_at <- Engine.now t.engine;
    (* A malicious primary delays the ordering message; the release
       floor keeps successive PRE-PREPAREs FIFO. *)
    let issue () =
      broadcast t (Messages.Pre_prepare pp);
      (* The primary's PRE-PREPARE stands for its PREPARE. *)
      let e = entry_for t pp.seq in
      e.sent_prepare <- true;
      maybe_send_commit t pp.seq e
    in
    let delay = t.adv.pp_extra_delay () in
    let rate_limit = t.adv.pp_rate_limit () in
    if
      delay = Time.zero && rate_limit = 0.0
      && t.pp_release <= Engine.now t.engine
    then issue ()
    else begin
      (* A delaying primary postpones this batch and/or caps the rate
         at which it releases ordered requests (the throughput
         reduction attacks of Sections III and VI-C2). The spacing
         accounts for the actual batch fill. *)
      let interval =
        if rate_limit > 0.0 then
          Time.of_sec_f (float_of_int batch_len /. rate_limit)
        else Time.zero
      in
      let release =
        Time.max
          (Time.add (Engine.now t.engine) delay)
          (Time.add t.pp_release interval)
      in
      t.pp_release <- release;
      (* The delayed closure may fire after a completed view change:
         by then [in_vc] is false again, but issuing would broadcast a
         stale-view PRE-PREPARE and wrongly mark [sent_prepare] on the
         new view's entry for the slot. Only issue while the batch's
         view is still current and this replica is still its primary. *)
      ignore
        (Engine.at t.engine release (fun () ->
             if (not t.in_vc) && pp.Messages.view = t.view && is_primary t then
               issue ()))
    end;
    if t.pending_len > 0 then flush_batch t
  end

let maybe_batch t =
  if is_primary t && not t.in_vc then begin
    let batch_size, batch_delay = batch_plan t in
    if t.pending_len >= batch_size then flush_batch t
    else if t.batch_timer = None && t.pending_len > 0 then
      t.batch_timer <-
        Some (Clock.after t.clock batch_delay (fun () ->
                  t.batch_timer <- None;
                  flush_batch t))
  end

let admits t desc =
  match t.batch_filter with None -> true | Some f -> f desc

let enqueue_for_batching t desc =
  if (not (Request_id_table.mem t.delivered_ids desc.id)) && admits t desc
  then begin
    t.pending_batch <- desc :: t.pending_batch;
    t.pending_len <- t.pending_len + 1;
    maybe_batch t
  end

(* ------------------------------------------------------------------ *)
(* No-op heartbeats (concurrent ordering)                             *)
(* ------------------------------------------------------------------ *)

(* An empty batch ordered through the normal three-phase pipeline. The
   round-robin merge of Bftrcc.Sequencer cannot skip an idle instance
   on local evidence (nodes would diverge), so the skip is itself
   agreed on: the idle primary orders "nothing" and every correct node
   merges the same nothing. Empty batches skip the batch-occupancy
   histogram so they do not dilute the real batching statistics. *)
let flush_noop t =
  if (not t.in_vc) && t.pending_len = 0 && in_window t t.next_seq then begin
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    let pp = { Messages.view = t.view; seq; descs = [] } in
    record_pp t pp;
    t.last_pp_at <- Engine.now t.engine;
    broadcast t (Messages.Pre_prepare pp);
    let e = entry_for t seq in
    e.sent_prepare <- true;
    maybe_send_commit t seq e
  end

let rec arm_noop t =
  ignore
    (Clock.after t.clock t.noop_interval (fun () ->
         if t.noop_interval > Time.zero then begin
           if
             is_primary t && (not t.in_vc) && t.pending_len = 0
             && Time.sub (Engine.now t.engine) t.last_pp_at >= t.noop_interval
             && (match t.noop_gate with None -> true | Some ok -> ok ())
           then flush_noop t;
           arm_noop t
         end))

let set_noop_interval t interval =
  let was = t.noop_interval in
  t.noop_interval <- interval;
  if was = Time.zero && interval > Time.zero then arm_noop t

let set_noop_gate t g = t.noop_gate <- g
let set_batch_filter t f = t.batch_filter <- f
let set_batch_tuner t f = t.batch_tuner <- f

(* ------------------------------------------------------------------ *)
(* Prepares and commits                                               *)
(* ------------------------------------------------------------------ *)

let have_all_requests t (pp : Messages.pre_prepare) =
  List.for_all
    (fun d ->
      Request_id_table.mem t.known d.id
      || Request_id_table.mem t.delivered_ids d.id)
    pp.descs

let maybe_send_prepare t (pp : Messages.pre_prepare) =
  let e = entry_for t pp.seq in
  if not e.sent_prepare then begin
    if is_primary t then begin
      (* The primary's PRE-PREPARE stands for its PREPARE. *)
      e.sent_prepare <- true;
      maybe_send_commit t pp.seq e
    end
    else if have_all_requests t pp then begin
      e.sent_prepare <- true;
      ignore (Voteset.Tagged.add e.prepares ~replica:t.cfg.replica_id ~digest:e.digest);
      broadcast t (Messages.Prepare { view = t.view; seq = pp.seq; digest = e.digest });
      maybe_send_commit t pp.seq e
    end
    else t.waiting_pps <- pp :: t.waiting_pps
  end

let recheck_waiting t =
  let ready, still =
    List.partition (fun pp -> have_all_requests t pp) t.waiting_pps
  in
  t.waiting_pps <- still;
  List.iter (fun pp -> maybe_send_prepare t pp) ready

let accept_pp t ~from (pp : Messages.pre_prepare) =
  if
    pp.view = t.view && (not t.in_vc)
    && from = current_primary t
    && in_window t pp.seq
  then begin
    let e = entry_for t pp.seq in
    let digest = Messages.batch_digest pp.descs in
    let adopt () =
      e.pp <- Some pp;
      e.pp_view <- pp.view;
      set_entry_digest e digest;
      e.t_pp <- Engine.now t.engine;
      (* Track requests for cross-view re-proposal. *)
      List.iter
        (fun d ->
          if not (Request_id_table.mem t.known d.id) then
            Request_id_table.replace t.known d.id d)
        pp.descs;
      maybe_send_prepare t pp;
      maybe_send_commit t pp.seq e
    in
    match e.pp with
    | Some _ when e.digest <> digest ->
      (* A conflicting batch for a slot we already hold one for. From
         the same view this is primary equivocation: ignore. From a
         LATER view it is the new view's decision for the slot (the
         max-view certificate of the new-view computation, or a fresh
         assignment when no certificate survived): adopt it and
         restart the quorum — unless the local batch is committed.
         Committed entries keep their certificates across view changes,
         and a committed batch is prepared at 2f+1 replicas, so the
         new-view computation necessarily re-proposes that same batch:
         ignoring the (impossible) conflict is what makes adoption
         safe. *)
      if
        pp.view > e.pp_view && (not e.delivered)
        && not
             (e.sent_commit
             && Voteset.Tagged.matching e.commits >= (2 * t.cfg.f) + 1)
      then begin
        Voteset.Tagged.clear e.prepares;
        Voteset.Tagged.clear e.commits;
        e.sent_prepare <- false;
        e.sent_commit <- false;
        adopt ()
      end
    | Some _ when e.delivered ->
      (* Delivered: the batch is final here. But the PP may be a later
         view's re-proposal from a replica that could not complete the
         slot before the view change ([enter_view] clears uncommitted
         certificates, so a replica that had sent its commit without
         yet holding 2f+1 of them restarts the slot from scratch).
         Staying mute would wedge that replica's in-order delivery on
         this slot forever: everyone who already delivered never votes
         in the new view, so no fresh certificate can form. Re-announce
         prepare and commit for the delivered digest in the current
         view — re-affirming a final batch is always safe, and those
         votes are exactly what the re-proposer is missing. *)
      if pp.view > e.pp_view && digest = e.digest then begin
        e.pp_view <- pp.view;
        broadcast t (Messages.Prepare { view = t.view; seq = pp.seq; digest = e.digest });
        broadcast t (Messages.Commit { view = t.view; seq = pp.seq; digest = e.digest })
      end
    | Some _ when e.sent_prepare ->
      () (* duplicate of an already-acknowledged batch *)
    | Some _ | None ->
      (* Fresh in this view — possibly a batch retained from an
         earlier view and re-proposed by the new primary. *)
      adopt ()
  end

(* A prepared certificate is 2f PREPAREs from backups: the view's
   primary sends none, so a PREPARE from it is Byzantine and ignored. *)
let accept_prepare t ~from ~view ~seq ~digest =
  if view = t.view && (not t.in_vc) && in_window t seq && from <> t.cfg.primary_of_view view
  then begin
    let e = entry_for t seq in
    (* Prepares may arrive before the PRE-PREPARE: store them with the
       digest they endorse; only matching ones are counted. *)
    if Voteset.Tagged.add e.prepares ~replica:from ~digest then
      maybe_send_commit t seq e
  end

let accept_commit t ~from ~view ~seq ~digest =
  if view = t.view && (not t.in_vc) && in_window t seq then begin
    let e = entry_for t seq in
    if Voteset.Tagged.add e.commits ~replica:from ~digest then
      if Voteset.Tagged.matching e.commits >= (2 * t.cfg.f) + 1 then
        try_deliver t
  end

(* ------------------------------------------------------------------ *)
(* View changes                                                       *)
(* ------------------------------------------------------------------ *)

let prepared_proofs t =
  Hashtbl.fold
    (fun seq (e : entry) acc ->
      match e.pp with
      | Some pp when e.sent_commit && not e.delivered ->
        {
          Messages.pseq = seq;
          pview = e.pp_view;
          pdigest = e.digest;
          pdescs = pp.descs;
        }
        :: acc
      | Some _ | None -> acc)
    t.entries []

let vc_votes_for t target =
  match Hashtbl.find_opt t.vc_votes target with
  | Some v -> v
  | None ->
    let v = Voteset.create ~n:t.cfg.n in
    Hashtbl.add t.vc_votes target v;
    v

let rec start_view_change t target =
  if target > t.view && not (Voteset.mem (vc_votes_for t target) t.cfg.replica_id)
  then begin
    t.in_vc <- true;
    t.vc_target <- Stdlib.max t.vc_target target;
    cancel_batch_timer t;
    let msg =
      Messages.View_change
        { new_view = target; last_stable = t.last_stable; prepared = prepared_proofs t }
    in
    ignore (Voteset.add (vc_votes_for t target) t.cfg.replica_id);
    broadcast t msg;
    (* If enough votes already arrived (we were late), finish now. *)
    check_new_view t target
  end

and enter_view t v =
  Probe.view_entered t.probe t.m (Engine.now t.engine) ~view:v
    ~primary:(t.cfg.primary_of_view v);
  t.view <- v;
  t.in_vc <- false;
  (* A batch timer armed while this replica was primary of the old
     view must die with the view: if it survived, its eventual flush
     on the (now demoted) replica would broadcast a batch the new
     primary also re-proposes. *)
  cancel_batch_timer t;
  t.vc_completed <- t.vc_completed + 1;
  t.pp_release <- Time.zero;
  (* Reset per-view quorum state for undelivered entries — except:
     - locally committed entries are final (quorum intersection) and
       keep their certificates so they can still be delivered;
     - PRE-PREPAREs are retained so the next primary can re-propose
       the in-flight batches (the role of the new-view computation in
       PBFT); prepares/commits must be re-collected in the new view. *)
  Hashtbl.iter
    (fun _ (e : entry) ->
      if not e.delivered then begin
        let committed =
          e.sent_commit && Voteset.Tagged.matching e.commits >= (2 * t.cfg.f) + 1
        in
        if not committed then begin
          Voteset.Tagged.clear e.prepares;
          Voteset.Tagged.clear e.commits;
          e.sent_prepare <- false;
          e.sent_commit <- false
        end
      end)
    t.entries;
  t.waiting_pps <- [];
  (* Certificates for this and earlier targets are spent. *)
  let dead =
    Hashtbl.fold
      (fun ((target, _) as key) _ acc -> if target <= v then key :: acc else acc)
      t.vc_proofs []
  in
  List.iter (Hashtbl.remove t.vc_proofs) dead;
  t.cb.on_view_change v

and new_primary_repropose t v =
  (* The new-view computation: per sequence number, re-propose the
     batch with the highest view among (a) the prepared certificates
     carried by the VIEW-CHANGE messages that elected this primary and
     (b) this replica's own log. The certificates are what carries a
     batch committed at some replica into the new view — this
     replica's log alone may hold a different (or no) batch for the
     slot, e.g. when the PRE-PREPARE raced the previous view change.
     Every known undelivered request not covered is then re-batched. *)
  let best : (seqno, view * request_desc list) Hashtbl.t =
    Hashtbl.create 64
  in
  let offer seq pview descs =
    match Hashtbl.find_opt best seq with
    | Some (bv, _) when bv >= pview -> ()
    | Some _ | None -> Hashtbl.replace best seq (pview, descs)
  in
  Hashtbl.iter
    (fun seq (e : entry) ->
      match e.pp with
      | Some pp when not e.delivered -> offer seq e.pp_view pp.descs
      | Some _ | None -> ())
    t.entries;
  Hashtbl.iter
    (fun (target, _) proofs ->
      if target = v then
        List.iter
          (fun (p : Messages.prepared_proof) ->
            (* Slots this primary already delivered are re-proposed
               too when a VIEW-CHANGE proof references them: the proof
               means some replica prepared the slot but could not
               finish it, and it needs a fresh certificate in the new
               view (replicas that delivered re-vote on the
               re-proposal; see [accept_pp]). Quorum intersection
               makes the proof's batch the delivered one. Slots at or
               below the stable checkpoint are GC'd here; the wedged
               replica recovers those by state transfer instead. *)
            if p.pseq > t.last_stable then offer p.pseq p.pview p.pdescs)
          proofs)
    t.vc_proofs;
  let reproposed = ref Request_id_set.empty in
  let pps =
    Hashtbl.fold
      (fun seq (pview, descs) acc ->
        ignore pview;
        List.iter
          (fun d -> reproposed := Request_id_set.add d.id !reproposed)
          descs;
        { Messages.view = v; seq; descs } :: acc)
      best []
  in
  let pps = List.sort (fun a b -> compare a.Messages.seq b.Messages.seq) pps in
  let max_seq =
    List.fold_left (fun acc pp -> Stdlib.max acc pp.Messages.seq) t.last_stable pps
  in
  (* Fresh batches must go to sequence numbers nobody has delivered:
     a primary that was out of office while the log advanced would
     otherwise propose into already-delivered slots, which every
     replica ignores. *)
  t.next_seq <- Stdlib.max (Stdlib.max t.next_seq (max_seq + 1)) t.next_deliver;
  enter_view t v;
  (* Model the cost of taking over as primary (history hashing, state
     synchronisation): fresh batches wait for the quiet period. *)
  t.pp_release <- Time.add (Engine.now t.engine) t.cfg.post_vc_quiet;
  List.iter (fun pp -> record_pp t pp) pps;
  broadcast t (Messages.New_view { view = v; pre_prepares = pps });
  (* Treat own re-issued PPs as accepted. *)
  List.iter
    (fun pp ->
      let e = entry_for t pp.Messages.seq in
      e.sent_prepare <- true;
      maybe_send_commit t pp.Messages.seq e)
    pps;
  (* Re-batch the rest. *)
  t.pending_batch <- [];
  t.pending_len <- 0;
  Request_id_table.iter
    (fun id d ->
      if
        (not (Request_id_table.mem t.delivered_ids id))
        && (not (Request_id_set.mem id !reproposed))
        && admits t d
      then begin
        t.pending_batch <- d :: t.pending_batch;
        t.pending_len <- t.pending_len + 1
      end)
    t.known;
  maybe_batch t

and check_new_view t target =
  let votes = vc_votes_for t target in
  if
    Voteset.count votes >= (2 * t.cfg.f) + 1
    && t.cfg.primary_of_view target = t.cfg.replica_id
    && t.view < target
  then new_primary_repropose t target

let accept_view_change t ~from ~new_view ~prepared =
  if new_view > t.view then begin
    let votes = vc_votes_for t new_view in
    Hashtbl.replace t.vc_proofs (new_view, from) prepared;
    ignore (Voteset.add votes from);
    (* Join the view change once f+1 votes are seen: at least one
       correct replica wants it. A replica wedged in an earlier view
       change (its target's primary is faulty and never sends
       NEW-VIEW) still joins a strictly later one — higher view
       changes subsume lower. *)
    if
      Voteset.count votes >= t.cfg.f + 1
      && ((not t.in_vc) || new_view > t.vc_target)
    then start_view_change t new_view;
    check_new_view t new_view
  end

let accept_new_view t ~from (v : view) pps =
  if v > t.view && from = t.cfg.primary_of_view v then begin
    enter_view t v;
    let max_seq =
      List.fold_left (fun acc pp -> Stdlib.max acc pp.Messages.seq) t.last_stable pps
    in
    t.next_seq <- Stdlib.max t.next_seq (max_seq + 1);
    List.iter (fun pp -> accept_pp t ~from (( { pp with Messages.view = v } : Messages.pre_prepare))) pps;
    try_deliver t
  end

(* ------------------------------------------------------------------ *)
(* Public entry points                                                *)
(* ------------------------------------------------------------------ *)

let submit ?(span = -1) t desc =
  if
    span >= 0
    && (not (Request_id_table.mem t.delivered_ids desc.id))
    && not (Request_id_table.mem t.span_in desc.id)
  then Request_id_table.replace t.span_in desc.id (span, Engine.now t.engine);
  if not (Request_id_table.mem t.known desc.id) then begin
    Request_id_table.replace t.known desc.id desc;
    if is_primary t && not t.in_vc then begin
      let hold = t.adv.client_hold desc.id in
      if hold = Time.zero then enqueue_for_batching t desc
      else
        ignore (Engine.after t.engine hold (fun () -> enqueue_for_batching t desc))
    end;
    recheck_waiting t
  end

(* A "silent" replica sends nothing ([broadcast] is suppressed) but
   still observes the instance passively: the node it runs on keeps
   seeing what the instance orders — which is how a faulty node's
   monitoring stays informed (Section VI-C2). *)
let receive t ~from msg =
  match msg with
    | Messages.Pre_prepare pp -> accept_pp t ~from pp
    | Messages.Prepare { view; seq; digest } -> accept_prepare t ~from ~view ~seq ~digest
    | Messages.Commit { view; seq; digest } -> accept_commit t ~from ~view ~seq ~digest
    | Messages.Checkpoint { seq; state_digest } ->
      accept_checkpoint t ~from ~seq ~state_digest
    | Messages.View_change { new_view; prepared; _ } ->
      accept_view_change t ~from ~new_view ~prepared
    | Messages.New_view { view; pre_prepares } ->
      accept_new_view t ~from view pre_prepares

(* Normally the next view; once wedged mid view-change, the view after
   the wedged target — its primary proved unresponsive, re-voting it
   would deadlock the instance. *)
let force_view_change t =
  start_view_change t
    ((if t.in_vc then Stdlib.max t.view t.vc_target else t.view) + 1)

let last_stable t = t.last_stable
let state_transfers t = t.state_transfers

let debug_dump t =
  let head =
    match Hashtbl.find_opt t.entries t.next_deliver with
    | None -> "head:none"
    | Some e ->
      Printf.sprintf "head:{pp=%b view=%d prep=%d com=%d sp=%b sc=%b}"
        (e.pp <> None) e.pp_view
        (Voteset.Tagged.count e.prepares)
        (Voteset.Tagged.count e.commits)
        e.sent_prepare e.sent_commit
  in
  Printf.sprintf
    "view=%d in_vc=%b next_seq=%d next_deliver=%d stable=%d pendbatch=%d waiting=%d release=%s %s"
    t.view t.in_vc t.next_seq t.next_deliver t.last_stable t.pending_len
    (List.length t.waiting_pps)
    (Time.to_string (Time.sub t.pp_release (Engine.now t.engine)))
    head

(* Test hook: the live keys of the entry log, ascending. Pins the
   checkpoint GC behaviour (exactly the post-watermark entries
   survive) without exposing the table itself. *)
let debug_live_seqs t =
  List.sort compare (Hashtbl.fold (fun s _ acc -> s :: acc) t.entries [])

(* Canonical protocol-state digest input for the model checker. Every
   ingredient is sorted or enumerated in a fixed order, so two replicas
   reached by different-but-equivalent schedules stringify identically.
   Deliberately excluded: wall-clock-relative values ([pp_release],
   span/timing bookkeeping, metric handles) — they do not influence
   which protocol actions are possible next. *)
(* Footprints over the replica's ordering
   state: the per-seqno log (checkpoint-pruned), the submitted-request
   pool and the delivered-id set (both still append-only — the probes
   exist to make that growth visible per structure). *)
let register_probes t ~owner =
  ignore
    (Probe.footprint t.probe ~owner ~name:"replica.log"
       ~entries:(fun () -> Hashtbl.length t.entries)
       ~root:(fun () -> Some (Obj.repr t.entries))
       ());
  ignore
    (Probe.footprint t.probe ~owner ~name:"replica.known"
       ~entries:(fun () -> Request_id_table.length t.known)
       ~root:(fun () -> Some (Obj.repr t.known))
       ());
  ignore
    (Probe.footprint t.probe ~owner ~name:"replica.delivered_ids"
       ~entries:(fun () -> Request_id_table.length t.delivered_ids)
       ~root:(fun () -> Some (Obj.repr t.delivered_ids))
       ())

let fingerprint t =
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  (* Digests are 32 raw bytes (or sentinels like "genesis"); render a
     12-hex-char prefix so the fingerprint stays printable. *)
  let hex_short s =
    if s = "" then "-"
    else
      let h = Bftcrypto.Sha256.to_hex s in
      if String.length h > 12 then String.sub h 0 12 else h
  in
  add "v=%d vc=%b vcc=%d ns=%d nd=%d ls=%d pend=%d oc=%d st=%d chain=%s;"
    t.view t.in_vc t.vc_completed t.next_seq t.next_deliver t.last_stable
    t.pending_len t.ordered_count t.state_transfers t.chain_digest;
  let members (vs : Voteset.Tagged.t) =
    let b = Buffer.create 8 in
    for r = 0 to t.cfg.n - 1 do
      if Voteset.Tagged.mem vs r then Buffer.add_string b (string_of_int r)
    done;
    Buffer.contents b
  in
  Hashtbl.fold (fun seq e acc -> (seq, e) :: acc) t.entries []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (seq, e) ->
         let pp_desc =
           match e.pp with
           | None -> "-"
           | Some pp ->
             Printf.sprintf "%d/%d:%s" pp.Messages.view pp.Messages.seq
               (String.concat ","
                  (List.map
                     (fun (d : request_desc) -> hex_short d.digest)
                     pp.Messages.descs))
         in
         add "e%d{pp=%s pv=%d dg=%s P=%s/%s C=%s/%s sp=%b sc=%b dl=%b};" seq
           pp_desc e.pp_view
           (hex_short e.digest)
           (members e.prepares)
           (hex_short (Voteset.Tagged.reference e.prepares))
           (members e.commits)
           (hex_short (Voteset.Tagged.reference e.commits))
           e.sent_prepare e.sent_commit e.delivered);
  (* Primary-side batch accumulator, in accumulation order (it is a
     deterministic function of submission order, which the schedule
     fixes). *)
  List.iter
    (fun (d : request_desc) -> add "b%s;" (hex_short d.digest))
    (List.rev t.pending_batch);
  Hashtbl.fold (fun v vs acc -> (v, vs) :: acc) t.vc_votes []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (v, vs) ->
         add "vc%d=%s;" v
           (String.concat "," (List.map string_of_int (Voteset.to_list vs))));
  Hashtbl.fold (fun seq cps acc -> (seq, cps) :: acc) t.checkpoints []
  |> List.sort (fun (a, _) (b, _) -> compare a b)
  |> List.iter (fun (seq, cps) ->
         List.sort compare
           (List.map
              (fun (dg, vs) ->
                Printf.sprintf "%s=%s" (hex_short dg)
                  (String.concat ","
                     (List.map string_of_int (Voteset.to_list vs))))
              !cps)
         |> List.iter (fun s -> add "cp%d{%s};" seq s));
  List.sort compare
    (List.map (fun (pp : Messages.pre_prepare) -> (pp.view, pp.seq)) t.waiting_pps)
  |> List.iter (fun (v, s) -> add "w%d/%d;" v s);
  Buffer.contents buf
