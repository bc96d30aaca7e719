open Dessim
open Pbftcore.Types

type config = { n : int; f : int; replica_id : int }

let batch_size = 16
let s_timeout = Time.ms 40
let pipeline = 4

type msg =
  | Pre_prepare of { seq : int; descs : request_desc list; attempt : int }
  | Prepare of { seq : int; digest : string; attempt : int }
  | Commit of { seq : int; digest : string; attempt : int }
  | Accuse of { seq : int }

type callbacks = { broadcast : msg -> unit; deliver : int -> request_desc list -> unit }

type adversary = { mutable pp_delay : unit -> Time.t; mutable silent : bool }

type entry = {
  mutable pp : request_desc list option;
  mutable digest : string;
  mutable attempt : int;  (* reassignment count after accusations *)
  prepares : Pbftcore.Voteset.t;
  commits : Pbftcore.Voteset.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  accuses : Pbftcore.Voteset.t;
  mutable accused : bool;  (* this replica accused for this seq *)
  mutable proposing : bool;  (* a local proposal is pending issue *)
  mutable delivered : bool;
  mutable t_pp : Time.t;  (* when the PP was adopted, for phase spans *)
  mutable t_prepared : Time.t;  (* when the prepare quorum formed *)
}

type t = {
  engine : Engine.t;
  clock : Clock.t;  (* accusation timers; scalable by the chaos engine *)
  cfg : config;
  cb : callbacks;
  adv : adversary;
  entries : (int, entry) Hashtbl.t;
  known : request_desc Request_id_table.t;
  claimed : unit Request_id_table.t;  (* in some in-flight proposal *)
  delivered_ids : unit Request_id_table.t;
  mutable next_deliver : int;
  mutable blacklist : int list;  (* most recently blacklisted first *)
  mutable timeout : Time.t;
  mutable timer : (int * Engine.timer) option;  (* armed for a seq *)
  mutable ordered : int;
  mutable pp_release : Time.t;
  (* PPs waiting for their requests to arrive from the clients *)
  mutable waiting_pps : (int * int * request_desc list) list;
  (* Traced requests: request id -> (parent span, submit time). On
     delivery the batch-wait/prepare/commit phase spans are emitted
     under the parent and the commit span kept for [take_span]. *)
  span_in : (int * Time.t) Request_id_table.t;
}

let create ?clock engine cfg cb =
  {
    engine;
    clock = (match clock with Some c -> c | None -> Clock.create engine);
    cfg;
    cb;
    adv = { pp_delay = (fun () -> Time.zero); silent = false };
    entries = Hashtbl.create 256;
    known = Request_id_table.create 1024;
    claimed = Request_id_table.create 1024;
    delivered_ids = Request_id_table.create 4096;
    next_deliver = 1;
    blacklist = [];
    timeout = s_timeout;
    timer = None;
    ordered = 0;
    pp_release = Time.zero;
    waiting_pps = [];
    span_in = Request_id_table.create 64;
  }

let adversary t = t.adv
let blacklist t = t.blacklist
let ordered_count t = t.ordered
let delivered_seqs t = t.next_deliver - 1
let current_timeout t = t.timeout

let pending_count t = Request_id_table.length t.known

let entry_for t seq =
  match Hashtbl.find_opt t.entries seq with
  | Some e -> e
  | None ->
    let e =
      {
        pp = None;
        digest = "";
        attempt = 0;
        prepares = Pbftcore.Voteset.create ~n:t.cfg.n;
        commits = Pbftcore.Voteset.create ~n:t.cfg.n;
        sent_prepare = false;
        sent_commit = false;
        accuses = Pbftcore.Voteset.create ~n:t.cfg.n;
        accused = false;
        proposing = false;
        delivered = false;
        t_pp = Time.zero;
        t_prepared = Time.zero;
      }
    in
    Hashtbl.add t.entries seq e;
    e

(* Proposer rotation: batch [seq] belongs to replica [(seq + attempt)
   mod n], skipping currently blacklisted replicas. [attempt] counts
   accusation-driven reassignments of this particular batch. *)
let proposer_of_attempt t ~seq ~attempt =
  (* Walk candidates (seq + k) mod n, skipping blacklisted replicas,
     and take the (attempt+1)-th eligible one. The k bound guards
     against a fully blacklisted rotation (cannot happen: at most f
     replicas are blacklisted). *)
  let rec go k remaining =
    let candidate = (seq + k) mod t.cfg.n in
    if k > 2 * t.cfg.n then candidate
    else if List.mem candidate t.blacklist then go (k + 1) remaining
    else if remaining = 0 then candidate
    else go (k + 1) (remaining - 1)
  in
  go 0 attempt

let proposer_of t ~seq =
  let e = entry_for t seq in
  proposer_of_attempt t ~seq ~attempt:e.attempt

let batch_digest descs = Pbftcore.Messages.batch_digest descs

(* ------------------------------------------------------------------ *)
(* Delivery                                                           *)
(* ------------------------------------------------------------------ *)

let audit t kind =
  Bftaudit.Bus.emit
    {
      Bftaudit.Event.time = Engine.now t.engine;
      node = t.cfg.replica_id;
      instance = 0;
      kind;
    }

(* Spinning rotates the proposer per sequence; the [attempt] counter
   plays the role of a per-sequence view in the audit events. Emitted
   inside the silence gate so a muted replica's votes never appear. *)
let audit_msg t msg =
  match msg with
  | Pre_prepare { seq; descs; attempt } ->
    audit t
      (Bftaudit.Event.Pre_prepare_sent
         {
           view = attempt;
           seq;
           count = List.length descs;
           digest = Pbftcore.Messages.batch_digest descs;
         })
  | Prepare { seq; digest; attempt; _ } ->
    audit t (Bftaudit.Event.Prepare_sent { view = attempt; seq; digest })
  | Commit { seq; digest; attempt; _ } ->
    audit t (Bftaudit.Event.Commit_sent { view = attempt; seq; digest })
  | Accuse { seq; _ } -> audit t (Bftaudit.Event.Accusation { seq })

let broadcast t msg =
  if not t.adv.silent then begin
    if Bftaudit.Bus.active () then audit_msg t msg;
    t.cb.broadcast msg
  end

(* On delivery, emit the per-request ordering phase spans from the
   entry's timing stamps. Stamps are clamped to stay monotonic even
   when a request joined after the PP was adopted. The commit span id
   replaces the parent in [span_in] for [take_span]. *)
let record_phase_spans t (e : entry) fresh =
  let now = Engine.now t.engine in
  let node = t.cfg.replica_id and instance = 0 in
  List.iter
    (fun (d : request_desc) ->
      match Request_id_table.find_opt t.span_in d.id with
      | None -> ()
      | Some (parent, t_sub) ->
        let t_pp = Time.max e.t_pp t_sub in
        let t_prep = Time.min now (Time.max e.t_prepared t_pp) in
        let b =
          Bftspan.Tracer.span ~parent ~tag:Bftspan.Tag.Batch_wait ~node
            ~instance ~t0:t_sub ~t1:t_pp
        in
        let pr =
          Bftspan.Tracer.span ~parent:b ~tag:Bftspan.Tag.Prepare ~node
            ~instance ~t0:t_pp ~t1:t_prep
        in
        let cm =
          Bftspan.Tracer.span ~parent:pr ~tag:Bftspan.Tag.Commit ~node
            ~instance ~t0:t_prep ~t1:now
        in
        Request_id_table.replace t.span_in d.id (cm, now))
    fresh

let take_span t ~id =
  match Request_id_table.find_opt t.span_in id with
  | None -> -1
  | Some (span, _) ->
    Request_id_table.remove t.span_in id;
    span

let rec rearm_timer t =
  (* Watch the oldest undelivered batch whenever requests are pending. *)
  (match t.timer with
   | Some (seq, _) when seq = t.next_deliver -> ()
   | Some (_, timer) ->
     Engine.cancel timer;
     t.timer <- None
   | None -> ());
  if t.timer = None && pending_count t > 0 then begin
    let seq = t.next_deliver in
    let timer =
      Clock.after t.clock t.timeout (fun () ->
          t.timer <- None;
          on_timeout t seq)
    in
    t.timer <- Some (seq, timer)
  end

and on_timeout t seq =
  if seq = t.next_deliver && pending_count t > 0 then begin
    let e = entry_for t seq in
    if (not e.delivered) && not e.accused then begin
      e.accused <- true;
      ignore (Pbftcore.Voteset.add e.accuses t.cfg.replica_id);
      broadcast t (Accuse { seq });
      check_accusations t seq
    end
  end

and check_accusations t seq =
  let e = entry_for t seq in
  if (not e.delivered) && Pbftcore.Voteset.count e.accuses >= (2 * t.cfg.f) + 1
  then begin
    (* Quorum: blacklist the proposer of this attempt and reassign. *)
    let culprit = proposer_of_attempt t ~seq ~attempt:e.attempt in
    if not (List.mem culprit t.blacklist) then begin
      t.blacklist <- culprit :: t.blacklist;
      (* At most f blacklisted: release the oldest (Sec. III-C, fn 1). *)
      if List.length t.blacklist > t.cfg.f then begin
        match List.rev t.blacklist with
        | oldest :: _ ->
          t.blacklist <- List.filter (fun r -> r <> oldest) t.blacklist
        | [] -> ()
      end
    end;
    e.attempt <- e.attempt + 1;
    (* Requests of the abandoned batch become claimable again. *)
    (match e.pp with
     | Some descs -> List.iter (fun d -> Request_id_table.remove t.claimed d.id) descs
     | None -> ());
    e.proposing <- false;
    e.pp <- None;
    e.digest <- "";
    e.t_pp <- Time.zero;
    e.t_prepared <- Time.zero;
    Pbftcore.Voteset.clear e.prepares;
    Pbftcore.Voteset.clear e.commits;
    e.sent_prepare <- false;
    e.sent_commit <- false;
    Pbftcore.Voteset.clear e.accuses;
    e.accused <- false;
    t.timeout <- Time.mul_f t.timeout 2.0;
    (match t.timer with
     | Some (_, timer) ->
       Engine.cancel timer;
       t.timer <- None
     | None -> ());
    rearm_timer t;
    maybe_propose t
  end

and try_deliver t =
  let rec go () =
    let e = entry_for t t.next_deliver in
    if
      e.sent_commit
      && Pbftcore.Voteset.count e.commits >= (2 * t.cfg.f) + 1
      && not e.delivered
    then begin
      match e.pp with
      | None -> ()
      | Some descs ->
        e.delivered <- true;
        let seq = t.next_deliver in
        t.next_deliver <- seq + 1;
        let fresh =
          List.filter (fun d -> not (Request_id_table.mem t.delivered_ids d.id)) descs
        in
        List.iter (fun d -> Request_id_table.replace t.delivered_ids d.id ()) fresh;
        (* Delivered requests leave the pending pool for good. *)
        List.iter
          (fun (d : request_desc) ->
            Request_id_table.remove t.known d.id;
            Request_id_table.remove t.claimed d.id)
          descs;
        t.ordered <- t.ordered + List.length fresh;
        if Bftspan.Tracer.active () then record_phase_spans t e fresh;
        if Bftaudit.Bus.active () then
          audit t
            (Bftaudit.Event.Ordered
               { seq; count = List.length fresh; digest = e.digest });
        (* A successful batch resets the timeout (Section III-C). *)
        t.timeout <- s_timeout;
        t.cb.deliver seq fresh;
        (match t.timer with
         | Some (_, timer) ->
           Engine.cancel timer;
           t.timer <- None
         | None -> ());
        rearm_timer t;
        maybe_propose t;
        go ()
    end
  in
  go ()

(* ------------------------------------------------------------------ *)
(* Proposing                                                          *)
(* ------------------------------------------------------------------ *)

and unclaimed_batch t =
  (* Concurrent proposers (the pipeline keeps several rotation slots
     in flight) each pick a different slice of the shared pending pool
     so that their batches rarely overlap; overlaps that do occur are
     deduplicated at delivery. *)
  let want = batch_size * t.cfg.n in
  let acc = ref [] and count = ref 0 in
  (try
     Request_id_table.iter
       (fun id d ->
         if
           (not (Request_id_table.mem t.delivered_ids id))
           && not (Request_id_table.mem t.claimed id)
         then begin
           acc := d :: !acc;
           incr count;
           if !count >= want then raise Exit
         end)
       t.known
   with Exit -> ());
  let all = List.rev !acc in
  let rec drop n = function
    | l when n = 0 -> l
    | [] -> []
    | _ :: tl -> drop (n - 1) tl
  in
  let rec take n = function
    | [] -> []
    | _ when n = 0 -> []
    | x :: tl -> x :: take (n - 1) tl
  in
  let slice = take batch_size (drop (t.cfg.replica_id * batch_size) all) in
  if slice = [] then take batch_size all else slice

and maybe_propose t =
  if not t.adv.silent then begin
    let horizon = t.next_deliver + pipeline - 1 in
    let rec scan seq =
      if seq <= horizon then begin
        let e = entry_for t seq in
        if
          e.pp = None && (not e.proposing)
          && proposer_of_attempt t ~seq ~attempt:e.attempt = t.cfg.replica_id
        then begin
          let batch = unclaimed_batch t in
          if batch <> [] then begin
            e.proposing <- true;
            List.iter (fun d -> Request_id_table.replace t.claimed d.id ()) batch;
            let attempt = e.attempt in
            let issue () =
              broadcast t (Pre_prepare { seq; descs = batch; attempt });
              accept_pp t ~from:t.cfg.replica_id ~seq ~descs:batch ~attempt
            in
            let delay = t.adv.pp_delay () in
            if delay = Time.zero && t.pp_release <= Engine.now t.engine then issue ()
            else begin
              let release =
                Time.max (Time.add (Engine.now t.engine) delay) t.pp_release
              in
              t.pp_release <- release;
              ignore (Engine.at t.engine release (fun () -> issue ()))
            end
          end
        end;
        scan (seq + 1)
      end
    in
    scan t.next_deliver
  end

and accept_pp t ~from ~seq ~descs ~attempt =
  let e = entry_for t seq in
  if
    (not e.delivered) && e.pp = None && attempt = e.attempt
    && from = proposer_of_attempt t ~seq ~attempt
  then begin
    (* All requests must already be known (clients broadcast to every
       replica); otherwise hold the PP until they arrive. *)
    let all_known =
      List.for_all
        (fun d ->
          Request_id_table.mem t.known d.id
          || Request_id_table.mem t.delivered_ids d.id)
        descs
    in
    if not all_known then
      t.waiting_pps <- (from, seq, descs) :: t.waiting_pps
    else begin
      e.pp <- Some descs;
      e.t_pp <- Engine.now t.engine;
      e.digest <- batch_digest descs;
      List.iter (fun d -> Request_id_table.replace t.claimed d.id ()) descs;
      if from <> t.cfg.replica_id then begin
        e.sent_prepare <- true;
        ignore (Pbftcore.Voteset.add e.prepares t.cfg.replica_id);
        broadcast t (Prepare { seq; digest = e.digest; attempt })
      end
      else e.sent_prepare <- true;
      maybe_commit t seq e
    end
  end

and maybe_commit t seq (e : entry) =
  if
    (not e.sent_commit) && e.sent_prepare
    && Pbftcore.Voteset.count e.prepares >= 2 * t.cfg.f
  then begin
    e.sent_commit <- true;
    e.t_prepared <- Engine.now t.engine;
    ignore (Pbftcore.Voteset.add e.commits t.cfg.replica_id);
    broadcast t (Commit { seq; digest = e.digest; attempt = e.attempt });
    try_deliver t
  end

let recheck_waiting t =
  let ready, still =
    List.partition
      (fun (_, _, descs) ->
        List.for_all (fun d -> Request_id_table.mem t.known d.id) descs)
      t.waiting_pps
  in
  t.waiting_pps <- still;
  List.iter
    (fun (from, seq, descs) ->
      let e = entry_for t seq in
      accept_pp t ~from ~seq ~descs ~attempt:e.attempt)
    ready

let submit ?(span = -1) t desc =
  if
    span >= 0
    && (not (Request_id_table.mem t.delivered_ids desc.id))
    && not (Request_id_table.mem t.span_in desc.id)
  then Request_id_table.replace t.span_in desc.id (span, Engine.now t.engine);
  if not (Request_id_table.mem t.known desc.id) then begin
    Request_id_table.replace t.known desc.id desc;
    recheck_waiting t;
    rearm_timer t;
    maybe_propose t
  end

let receive t ~from msg =
  if t.adv.silent then ()
  else
    match msg with
    | Pre_prepare { seq; descs; attempt } -> accept_pp t ~from ~seq ~descs ~attempt
    | Prepare { seq; digest; attempt } ->
      let e = entry_for t seq in
      if
        (not e.delivered) && attempt = e.attempt
        && (e.pp = None || String.equal e.digest digest)
        && Pbftcore.Voteset.add e.prepares from
      then maybe_commit t seq e
    | Commit { seq; digest; attempt } ->
      let e = entry_for t seq in
      if
        (not e.delivered) && attempt = e.attempt
        && (e.pp = None || String.equal e.digest digest)
        && Pbftcore.Voteset.add e.commits from
      then try_deliver t
    | Accuse { seq } ->
      let e = entry_for t seq in
      if (not e.delivered) && Pbftcore.Voteset.add e.accuses from then begin
        (* Join the accusation once f+1 others complain and we also
           have the batch pending. *)
        if
          Pbftcore.Voteset.count e.accuses >= t.cfg.f + 1
          && (not e.accused) && seq = t.next_deliver
        then begin
          e.accused <- true;
          ignore (Pbftcore.Voteset.add e.accuses t.cfg.replica_id);
          broadcast t (Accuse { seq })
        end;
        check_accusations t seq
      end
