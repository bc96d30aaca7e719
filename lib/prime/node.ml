open Dessim
open Bftcrypto
open Bftnet
open Bftapp
open Pbftcore.Types
module Node_core = Pbftcore.Node_core
module Probe = Bftmetrics.Probe
module Slot = Pbftcore.Slot

type msg =
  | Request of { desc : request_desc; sig_valid : bool }
  | Po_request of { desc : request_desc; po_seq : int }
  | Pre_prepare of { view : int; seq : int; vector : int array }
  | Prepare of { view : int; seq : int; digest : string }
  | Commit of { view : int; seq : int; digest : string }
  | Ping of { nonce : int }
  | Pong of { nonce : int }
  | Suspect of { view : int }
  | Reply of { id : request_id; result : string }

type config = { f : int; exec_cost : Time.t }

let default_config ~f = { f; exec_cost = Time.us 100 }
let origin_window = 30 (* requests per origin one PRE-PREPARE may cover *)
let heavy_exec_cost = Time.ms 1 (* a request flagged heavy, as in the paper's attack *)
let body_copy_factor = 6.0

type faults = { mutable delay_to_limit : bool; mutable limit_fraction : float }

type seq_entry = {
  mutable vector : int array option;
  slot : Slot.t;  (* digest, votes and phase flags *)
}

type t = {
  core : msg Node_core.t;
  cfg : config;
  main : Resource.t;  (* single protocol + execution thread *)
  monitor : Monitor.t;
  faults : faults;
  (* Pre-ordering state: per-origin buffers of descs, indexed by po_seq
     (1-based, dense). *)
  po_buffers : request_desc option array array ref;
  po_received : int array;  (* contiguous prefix length per origin *)
  mutable my_po_seq : int;
  ordered_vector : int array;  (* delivered watermark per origin *)
  entries : (int, seq_entry) Hashtbl.t;
  mutable view : int;
  mutable next_seq : int;  (* primary: next PP seq *)
  mutable next_deliver : int;
  suspects : Pbftcore.Voteset.t;  (* replicas voting against current view *)
  mutable suspects_seen : int;
  mutable ping_nonce : int;
  pings_inflight : (int, Time.t) Hashtbl.t;
  (* Traced requests: request id -> (parent span, arrival time). The
     pre-ordering wait (po -> delivery) and execution spans are emitted
     under the parent when the request finally executes. *)
  span_in : (int * Time.t) Request_id_table.t;
  mutable started : bool;
}

let id t = t.core.id
let faults t = t.faults
let monitor t = t.monitor
let view t = t.view
let ledger t = t.core.ledger
let suspects_seen t = t.suspects_seen
let set_clock_factor t = Node_core.set_clock_factor t.core
let set_cpu_factor t = Node_core.set_cpu_factor t.core

let primary t = t.view mod t.core.n
let is_primary t = primary t = t.core.id

let sig_size = Keys.signature_size

(* Prime clients sign their requests; there is no per-node authenticator. *)
let request_size ~n:_ (desc : request_desc) = 16 + desc.op_size + sig_size

let msg_size ~n m =
  match m with
  | Request { desc; _ } -> request_size ~n desc
  | Po_request { desc; _ } -> 24 + desc.op_size + sig_size
  | Pre_prepare { vector; _ } -> 24 + (8 * Array.length vector) + sig_size
  | Prepare _ | Commit _ -> 24 + Sha256.size + sig_size
  | Ping _ | Pong _ -> 24 + sig_size
  | Suspect _ -> 24 + sig_size
  | Reply { result; _ } -> 16 + String.length result + sig_size

(* The PO-REQUEST dissemination copies full request bodies through
   the replica's buffers several times. *)
let cost_bytes m ~size =
  match m with
  | Po_request _ -> int_of_float (float_of_int size *. body_copy_factor)
  | Request _ | Pre_prepare _ | Prepare _ | Commit _ | Ping _ | Pong _
  | Suspect _ | Reply _ ->
    size

(* Prime signs every message it broadcasts. *)
let broadcast t m = Node_core.broadcast t.core t.main m

let vector_digest view seq vector =
  let buf = Buffer.create 64 in
  Buffer.add_string buf (string_of_int view);
  Buffer.add_char buf ':';
  Buffer.add_string buf (string_of_int seq);
  Array.iter
    (fun v ->
      Buffer.add_char buf ',';
      Buffer.add_string buf (string_of_int v))
    vector;
  Sha256.digest_string (Buffer.contents buf)

let entry_for t seq =
  match Hashtbl.find_opt t.entries seq with
  | Some e -> e
  | None ->
    let e = { vector = None; slot = Slot.create ~n:t.core.n ~f:t.cfg.f } in
    Hashtbl.add t.entries seq e;
    e

(* ------------------------------------------------------------------ *)
(* Pre-ordering buffers                                                *)
(* ------------------------------------------------------------------ *)

let buffer_slot t origin po_seq =
  let buffers = !(t.po_buffers) in
  let buf = buffers.(origin) in
  if po_seq >= Array.length buf then begin
    let bigger = Array.make (Stdlib.max (po_seq + 1) (2 * Array.length buf)) None in
    Array.blit buf 0 bigger 0 (Array.length buf);
    buffers.(origin) <- bigger
  end;
  buffers.(origin)

let store_po t ~origin ~po_seq desc =
  let buf = buffer_slot t origin po_seq in
  if buf.(po_seq) = None then begin
    buf.(po_seq) <- Some desc;
    (* Advance the contiguous prefix. *)
    let i = ref t.po_received.(origin) in
    while !i + 1 < Array.length buf && buf.(!i + 1) <> None do
      incr i
    done;
    t.po_received.(origin) <- !i
  end

(* ------------------------------------------------------------------ *)
(* Execution                                                          *)
(* ------------------------------------------------------------------ *)

let exec_cost_of t (desc : request_desc) =
  Time.max
    (if desc.flagged_heavy then heavy_exec_cost else t.cfg.exec_cost)
    (t.core.service.Service.exec_cost desc.op)

let execute_one t (desc : request_desc) =
  if not (Node_core.has_executed t.core desc.id) then begin
    let cost = exec_cost_of t desc in
    (* Execution runs inline on the main thread ([charge], not
       [submit]), so the execution span is [now, now + cost]. *)
    let espan =
      if not (Probe.spans t.core.probe) then -1
      else
        match Request_id_table.find_opt t.span_in desc.id with
        | None -> -1
        | Some (parent, t_in) ->
          Request_id_table.remove t.span_in desc.id;
          let now = Engine.now t.core.engine in
          let b =
            Probe.span t.core.probe ~parent ~tag:Bftmetrics.Tag.Batch_wait ~node:t.core.id
              ~instance:0 ~t0:t_in ~t1:now
          in
          Probe.span t.core.probe ~parent:b ~tag:Bftmetrics.Tag.Execution ~node:t.core.id
            ~instance:0 ~t0:now ~t1:(Time.add now cost)
    in
    (* Execution happens on the main thread: heavy requests delay
       everything behind them, including pong responses. *)
    Resource.charge t.main cost;
    Node_core.execute t.core t.main ~span:espan desc
  end

let rec try_deliver t =
  let e = entry_for t t.next_deliver in
  match e.vector with
  | Some vector when (not e.slot.delivered) && Slot.committed e.slot ->
    (* Check every covered PO-REQUEST is locally available. *)
    let ready =
      Array.for_all2 (fun have want -> have >= want) t.po_received vector
    in
    if ready then begin
      Slot.deliver e.slot;
      if Probe.audit t.core.probe then begin
        (* Digest over the summary vector alone (the agreed content):
           Prime's own [vector_digest] also covers the view, which
           would make the same seq hash differently across views and
           defeat the auditor's cross-node agreement check. *)
        let buf = Buffer.create 64 in
        Array.iter
          (fun upto ->
            Buffer.add_string buf (string_of_int upto);
            Buffer.add_char buf ',')
          vector;
        let count =
          let c = ref 0 in
          Array.iteri
            (fun origin upto ->
              c := !c + Stdlib.max 0 (upto - t.ordered_vector.(origin)))
            vector;
          !c
        in
        Node_core.audit t.core ~instance:0
          (Bftmetrics.Event.Ordered
             {
               seq = t.next_deliver;
               count;
               digest = Sha256.digest_string (Buffer.contents buf);
             })
      end;
      t.next_deliver <- t.next_deliver + 1;
      let buffers = !(t.po_buffers) in
      let total_exec = ref Time.zero in
      Array.iteri
        (fun origin upto ->
          for k = t.ordered_vector.(origin) + 1 to upto do
            match buffers.(origin).(k) with
            | Some desc ->
              total_exec := Time.add !total_exec (exec_cost_of t desc);
              execute_one t desc
            | None -> ()
          done;
          t.ordered_vector.(origin) <- Stdlib.max t.ordered_vector.(origin) upto)
        vector;
      Monitor.note_batch_exec t.monitor !total_exec;
      try_deliver t
    end
  | Some _ | None -> ()

(* ------------------------------------------------------------------ *)
(* Agreement on summary vectors                                        *)
(* ------------------------------------------------------------------ *)

let maybe_commit t seq (e : seq_entry) =
  if Slot.commit e.slot ~self:t.core.id ~now:(Engine.now t.core.engine) then begin
    broadcast t (Commit { view = t.view; seq; digest = e.slot.digest });
    try_deliver t
  end

let accept_pp t ~from ~view ~seq vector =
  if view = t.view && from = primary t then begin
    Monitor.note_pre_prepare t.monitor ~now:(Engine.now t.core.engine);
    let e = entry_for t seq in
    if e.vector = None then begin
      e.vector <- Some vector;
      Slot.fix e.slot (vector_digest view seq vector) ~now:(Engine.now t.core.engine);
      Slot.prepare e.slot ~self:t.core.id ~proposer:from;
      if from <> t.core.id then
        broadcast t (Prepare { view; seq; digest = e.slot.digest });
      maybe_commit t seq e
    end
  end

(* The primary's periodic aggregation: cover everything pre-ordered,
   bounded by the per-origin window. *)
let build_vector t =
  Array.mapi
    (fun origin delivered ->
      let available = t.po_received.(origin) in
      Stdlib.min available (delivered + origin_window))
    t.ordered_vector

let issue_pre_prepare t =
  if is_primary t then begin
    let vector = build_vector t in
    let seq = t.next_seq in
    t.next_seq <- seq + 1;
    broadcast t (Pre_prepare { view = t.view; seq; vector });
    accept_pp t ~from:t.core.id ~view:t.view ~seq vector
  end

let pp_period t =
  if t.faults.delay_to_limit && is_primary t then
    Time.max Monitor.t_pp
      (Time.mul_f (Monitor.allowed_gap t.monitor) t.faults.limit_fraction)
  else Monitor.t_pp

let rec arm_pp_loop t =
  ignore
    (Clock.after t.core.clock (pp_period t) (fun () ->
         Resource.submit t.main ~cost:(Time.us 5) (fun () ->
             issue_pre_prepare t;
             arm_pp_loop t)))

(* ------------------------------------------------------------------ *)
(* Suspicion and view change                                          *)
(* ------------------------------------------------------------------ *)

let enter_view t v =
  if v > t.view then begin
    t.view <- v;
    Pbftcore.Voteset.clear t.suspects;
    (* Re-anchor monitoring in the new view. *)
    Monitor.note_pre_prepare t.monitor ~now:(Engine.now t.core.engine);
    if is_primary t then t.next_seq <- Stdlib.max t.next_seq t.next_deliver
  end

let note_suspect t ~from ~view =
  if view = t.view then begin
    if Pbftcore.Voteset.add t.suspects from then
      t.suspects_seen <- t.suspects_seen + 1;
    if Pbftcore.Voteset.count t.suspects >= (2 * t.cfg.f) + 1 then
      enter_view t (t.view + 1)
  end

let check_suspicion t =
  if (not (is_primary t)) && Monitor.suspicious t.monitor ~now:(Engine.now t.core.engine)
  then
    if Pbftcore.Voteset.add t.suspects t.core.id then begin
      broadcast t (Suspect { view = t.view });
      if Pbftcore.Voteset.count t.suspects >= (2 * t.cfg.f) + 1 then
        enter_view t (t.view + 1)
    end

(* ------------------------------------------------------------------ *)
(* Pings                                                              *)
(* ------------------------------------------------------------------ *)

let rec arm_ping_loop t =
  ignore
    (Clock.after t.core.clock Monitor.ping_period (fun () ->
         Resource.submit t.main ~cost:(Time.us 2) (fun () ->
             t.ping_nonce <- t.ping_nonce + 1;
             Hashtbl.replace t.pings_inflight t.ping_nonce (Engine.now t.core.engine);
             broadcast t (Ping { nonce = t.ping_nonce });
             check_suspicion t;
             arm_ping_loop t)))

(* ------------------------------------------------------------------ *)
(* Inbound                                                            *)
(* ------------------------------------------------------------------ *)

let handle_request t ~span (desc : request_desc) ~sig_valid =
  if not (Node_core.resend_reply t.core t.main desc.id) then begin
    Resource.charge t.main (Costmodel.sig_verify t.core.probe ~bytes:desc.op_size);
    if sig_valid then begin
      if span >= 0 && not (Request_id_table.mem t.span_in desc.id) then
        Request_id_table.replace t.span_in desc.id (span, Engine.now t.core.engine);
      t.my_po_seq <- t.my_po_seq + 1;
      store_po t ~origin:t.core.id ~po_seq:t.my_po_seq desc;
      Node_core.broadcast ~span t.core t.main (Po_request { desc; po_seq = t.my_po_seq })
    end
  end

let on_delivery t ~from ~recv ~verify (d : msg Network.delivery) =
  let with_sig = Time.add recv verify in
  match d.Network.payload with
  | Request { desc; sig_valid } ->
    let vspan =
      Probe.job t.core.probe ~parent:d.Network.span ~tag:Bftmetrics.Tag.Crypto_verify
        ~node:t.core.id ~instance:0 ~now:(Engine.now t.core.engine)
    in
    Resource.submit ~span:vspan t.main ~cost:recv (fun () ->
        handle_request t ~span:vspan desc ~sig_valid)
  | Po_request { desc; po_seq } ->
    let pspan =
      Probe.job t.core.probe ~parent:d.Network.span ~tag:Bftmetrics.Tag.Propagate
        ~node:t.core.id ~instance:0 ~now:(Engine.now t.core.engine)
    in
    Resource.submit ~span:pspan t.main ~cost:with_sig (fun () ->
        if
          pspan >= 0
          && (not (Node_core.has_executed t.core desc.id))
          && not (Request_id_table.mem t.span_in desc.id)
        then
          Request_id_table.replace t.span_in desc.id (pspan, Engine.now t.core.engine);
        store_po t ~origin:from ~po_seq desc;
        try_deliver t)
  | Pre_prepare { view; seq; vector } ->
    Resource.submit t.main ~cost:with_sig (fun () -> accept_pp t ~from ~view ~seq vector)
  | Prepare { view; seq; digest } ->
    Resource.submit t.main ~cost:with_sig (fun () ->
        if view = t.view then begin
          let e = entry_for t seq in
          if Slot.add_prepare e.slot ~proposer:(primary t) ~from ~digest then
            maybe_commit t seq e
        end)
  | Commit { view; seq; digest } ->
    Resource.submit t.main ~cost:with_sig (fun () ->
        if view = t.view then begin
          let e = entry_for t seq in
          if Slot.add_commit e.slot ~from ~digest then try_deliver t
        end)
  | Ping { nonce } ->
    Resource.submit t.main ~cost:with_sig (fun () ->
        Node_core.send t.core t.main ~dst:(Principal.node from) (Pong { nonce }))
  | Pong { nonce } ->
    Resource.submit t.main ~cost:with_sig (fun () ->
        match Hashtbl.find_opt t.pings_inflight nonce with
        | Some sent ->
          Hashtbl.remove t.pings_inflight nonce;
          Monitor.note_rtt t.monitor (Time.sub (Engine.now t.core.engine) sent)
        | None -> ())
  | Suspect { view } ->
    Resource.submit t.main ~cost:with_sig (fun () -> note_suspect t ~from ~view)
  | Reply _ -> ()

let create engine net cfg ~id ~service =
  let n = (3 * cfg.f) + 1 in
  let core =
    Node_core.create engine net ~id ~n ~service ~name:(Printf.sprintf "pr%d" id)
      ~size:(msg_size ~n) ~cost_bytes ~scheme:Node_core.Signature
      (* The calibrated Prime charges no signature for its REPLYs (nor
         for its unicast PONGs), though [msg_size] counts one on every
         message. ROADMAP records the gap; closing it moves Fig 1. *)
      ~authenticate_replies:false
      ~node_only:(function
        | Request _ | Reply _ -> false
        | Po_request _ | Pre_prepare _ | Prepare _ | Commit _ | Ping _ | Pong _
        | Suspect _ ->
          true)
      ~reply:(fun id result -> Reply { id; result })
  in
  let t =
    {
      core;
      cfg;
      main = Node_core.thread core "main";
      monitor = Monitor.create ();
      faults = { delay_to_limit = false; limit_fraction = 0.95 };
      po_buffers = ref (Array.init n (fun _ -> Array.make 1024 None));
      po_received = Array.make n 0;
      my_po_seq = 0;
      ordered_vector = Array.make n 0;
      entries = Hashtbl.create 256;
      view = 0;
      next_seq = 1;
      next_deliver = 1;
      suspects = Pbftcore.Voteset.create ~n;
      suspects_seen = 0;
      ping_nonce = 0;
      pings_inflight = Hashtbl.create 16;
      span_in = Request_id_table.create 64;
      started = false;
    }
  in
  (* A failed signature, or replica traffic from a client, pays its
     verification, then is dropped. *)
  Node_core.listen core ~forged_on:t.main (on_delivery t);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Monitor.note_pre_prepare t.monitor ~now:(Engine.now t.core.engine);
    arm_pp_loop t;
    arm_ping_loop t
  end
