open Dessim
open Bftcrypto
open Bftnet
open Bftapp
open Pbftcore.Types
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
let origin_window = 30
let heavy_exec_cost = Time.ms 1
let body_copy_factor = 6.0

type faults = { mutable delay_to_limit : bool; mutable limit_fraction : float }

type seq_entry = {
  mutable vector : int array option;
  slot : Slot.t;  (* digest, votes and phase flags *)
}

type t = {
  engine : Engine.t;
  clock : Clock.t;  (* pp/ping loops; skewable by the chaos engine *)
  net : msg Network.t;
  probe : Probe.t;
  cfg : config;
  id : int;
  service : Service.t;
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
  executed : string Request_id_table.t;
  ledger : Pbftcore.Ledger.t;
  mutable ping_nonce : int;
  pings_inflight : (int, Time.t) Hashtbl.t;
  (* Traced requests: request id -> (parent span, arrival time). The
     pre-ordering wait (po -> delivery) and execution spans are emitted
     under the parent when the request finally executes. *)
  span_in : (int * Time.t) Request_id_table.t;
  mutable started : bool;
}

let id t = t.id
let faults t = t.faults
let monitor t = t.monitor
let view t = t.view
let ledger t = t.ledger
let executed_count t = Pbftcore.Ledger.count t.ledger
let executed_counter t = Pbftcore.Ledger.counter t.ledger
let execution_digest t = Pbftcore.Ledger.digest t.ledger
let suspects_seen t = t.suspects_seen

let set_clock_factor t k = Clock.set_factor t.clock k
let set_cpu_factor t s = Resource.set_speed t.main s

let n_nodes t = (3 * t.cfg.f) + 1
let primary t = t.view mod n_nodes t
let is_primary t = primary t = t.id

let sig_size = Keys.signature_size

(* Prime clients sign their requests; there is no per-node authenticator. *)
let request_size ~n:_ (desc : request_desc) = 16 + desc.op_size + sig_size

let msg_size t m =
  match m with
  | Request { desc; _ } -> request_size ~n:(n_nodes t) desc
  | Po_request { desc; _ } -> 24 + desc.op_size + sig_size
  | Pre_prepare { vector; _ } -> 24 + (8 * Array.length vector) + sig_size
  | Prepare _ | Commit _ -> 24 + Sha256.size + sig_size
  | Ping _ | Pong _ -> 24 + sig_size
  | Suspect _ -> 24 + sig_size
  | Reply { result; _ } -> 16 + String.length result + sig_size

(* The PO-REQUEST dissemination copies full request bodies through
   the replica's buffers several times. *)
let cost_bytes t m =
  let size = msg_size t m in
  match m with
  | Po_request _ -> int_of_float (float_of_int size *. body_copy_factor)
  | Request _ | Pre_prepare _ | Prepare _ | Commit _ | Ping _ | Pong _
  | Suspect _ | Reply _ ->
    size

let send_from ?(span = -1) ?span_tag t ~dst m =
  let size = msg_size t m in
  Resource.charge t.main (Costmodel.send ~bytes:(cost_bytes t m));
  Network.send ~span ?span_tag t.net ~src:(Principal.node t.id) ~dst ~size m

(* Prime signs every message. *)
let broadcast_signed ?(span = -1) t m =
  let size = msg_size t m in
  Resource.charge t.main (Costmodel.sig_sign t.probe ~bytes:size);
  for dst = 0 to n_nodes t - 1 do
    if dst <> t.id then begin
      Resource.charge t.main (Costmodel.send ~bytes:(cost_bytes t m));
      Network.send ~span t.net ~src:(Principal.node t.id) ~dst:(Principal.node dst)
        ~size m
    end
  done

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
    let e = { vector = None; slot = Slot.create ~n:(n_nodes t) ~f:t.cfg.f } in
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
  if desc.flagged_heavy then Time.max heavy_exec_cost (t.service.Service.exec_cost desc.op)
  else Time.max t.cfg.exec_cost (t.service.Service.exec_cost desc.op)

let audit t kind = Probe.emit_at t.probe (Engine.now t.engine) ~node:t.id ~instance:0 kind

let execute_one t (desc : request_desc) =
  if not (Request_id_table.mem t.executed desc.id) then begin
    let cost = exec_cost_of t desc in
    (* Execution runs inline on the main thread ([charge], not
       [submit]), so the execution span is [now, now + cost]. *)
    let espan =
      if not (Probe.spans t.probe) then -1
      else
        match Request_id_table.find_opt t.span_in desc.id with
        | None -> -1
        | Some (parent, t_in) ->
          Request_id_table.remove t.span_in desc.id;
          let now = Engine.now t.engine in
          let b =
            Probe.span t.probe ~parent ~tag:Bftspan.Tag.Batch_wait ~node:t.id
              ~instance:0 ~t0:t_in ~t1:now
          in
          Probe.span t.probe ~parent:b ~tag:Bftspan.Tag.Execution ~node:t.id ~instance:0
            ~t0:now ~t1:(Time.add now cost)
    in
    (* Execution happens on the main thread: heavy requests delay
       everything behind them, including pong responses. *)
    Resource.charge t.main cost;
    let result = t.service.Service.execute desc.op in
    Request_id_table.replace t.executed desc.id result;
    Pbftcore.Ledger.execute t.ledger ~now:(Engine.now t.engine) ~node:t.id ~instance:0
      desc;
    send_from ~span:espan ~span_tag:Bftspan.Tag.Reply t
      ~dst:(Principal.client desc.id.client)
      (Reply { id = desc.id; result })
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
      if Probe.audit t.probe then begin
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
        audit t
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
  if Slot.commit e.slot ~self:t.id ~now:(Engine.now t.engine) then begin
    broadcast_signed t (Commit { view = t.view; seq; digest = e.slot.digest });
    try_deliver t
  end

let accept_pp t ~from ~view ~seq vector =
  if view = t.view && from = primary t then begin
    Monitor.note_pre_prepare t.monitor ~now:(Engine.now t.engine);
    let e = entry_for t seq in
    if e.vector = None then begin
      e.vector <- Some vector;
      Slot.fix e.slot (vector_digest view seq vector) ~now:(Engine.now t.engine);
      Slot.prepare e.slot ~self:t.id ~proposer:from;
      if from <> t.id then broadcast_signed t (Prepare { view; seq; digest = e.slot.digest });
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
    broadcast_signed t (Pre_prepare { view = t.view; seq; vector });
    accept_pp t ~from:t.id ~view:t.view ~seq vector
  end

let pp_period t =
  if t.faults.delay_to_limit && is_primary t then
    Time.max Monitor.t_pp
      (Time.mul_f (Monitor.allowed_gap t.monitor) t.faults.limit_fraction)
  else Monitor.t_pp

let rec arm_pp_loop t =
  ignore
    (Clock.after t.clock (pp_period t) (fun () ->
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
    Monitor.note_pre_prepare t.monitor ~now:(Engine.now t.engine);
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
  if (not (is_primary t)) && Monitor.suspicious t.monitor ~now:(Engine.now t.engine)
  then
    if Pbftcore.Voteset.add t.suspects t.id then begin
      broadcast_signed t (Suspect { view = t.view });
      if Pbftcore.Voteset.count t.suspects >= (2 * t.cfg.f) + 1 then
        enter_view t (t.view + 1)
    end

(* ------------------------------------------------------------------ *)
(* Pings                                                              *)
(* ------------------------------------------------------------------ *)

let rec arm_ping_loop t =
  ignore
    (Clock.after t.clock Monitor.ping_period (fun () ->
         Resource.submit t.main ~cost:(Time.us 2) (fun () ->
             t.ping_nonce <- t.ping_nonce + 1;
             Hashtbl.replace t.pings_inflight t.ping_nonce (Engine.now t.engine);
             broadcast_signed t (Ping { nonce = t.ping_nonce });
             check_suspicion t;
             arm_ping_loop t)))

(* ------------------------------------------------------------------ *)
(* Inbound                                                            *)
(* ------------------------------------------------------------------ *)

let handle_request t ~span (desc : request_desc) ~sig_valid =
  match Request_id_table.find_opt t.executed desc.id with
  | Some result ->
    send_from t ~dst:(Principal.client desc.id.client) (Reply { id = desc.id; result })
  | None ->
    Resource.charge t.main (Costmodel.sig_verify t.probe ~bytes:desc.op_size);
    if sig_valid then begin
      if span >= 0 && not (Request_id_table.mem t.span_in desc.id) then
        Request_id_table.replace t.span_in desc.id (span, Engine.now t.engine);
      t.my_po_seq <- t.my_po_seq + 1;
      store_po t ~origin:t.id ~po_seq:t.my_po_seq desc;
      broadcast_signed ~span t (Po_request { desc; po_seq = t.my_po_seq })
    end

let on_delivery t (d : msg Network.delivery) =
  let base = Costmodel.recv ~bytes:(cost_bytes t d.Network.payload) in
  let verify = Costmodel.sig_verify t.probe ~bytes:d.Network.size in
  let with_sig = Time.add base verify in
  let from = Network.src_node d in
  let authentic =
    (not d.Network.corrupted)
    &&
    match d.Network.payload with
    | Request _ | Reply _ -> true
    | Po_request _ | Pre_prepare _ | Prepare _ | Commit _ | Ping _ | Pong _
    | Suspect _ ->
      from >= 0
  in
  if not authentic then
    (* Failed signature check, or replica traffic from a client: pay
       the verification cost, then drop. *)
    Resource.submit t.main ~cost:with_sig (fun () -> ())
  else
  match d.Network.payload with
  | Request { desc; sig_valid } ->
    let vspan =
      Probe.job t.probe ~parent:d.Network.span ~tag:Bftspan.Tag.Crypto_verify ~node:t.id
        ~instance:0 ~now:(Engine.now t.engine)
    in
    Resource.submit ~span:vspan t.main ~cost:base (fun () ->
        handle_request t ~span:vspan desc ~sig_valid)
  | Po_request { desc; po_seq } ->
    let pspan =
      Probe.job t.probe ~parent:d.Network.span ~tag:Bftspan.Tag.Propagate ~node:t.id
        ~instance:0 ~now:(Engine.now t.engine)
    in
    Resource.submit ~span:pspan t.main ~cost:with_sig (fun () ->
        if
          pspan >= 0
          && (not (Request_id_table.mem t.executed desc.id))
          && not (Request_id_table.mem t.span_in desc.id)
        then
          Request_id_table.replace t.span_in desc.id (pspan, Engine.now t.engine);
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
        send_from t ~dst:(Principal.node from) (Pong { nonce }))
  | Pong { nonce } ->
    Resource.submit t.main ~cost:with_sig (fun () ->
        match Hashtbl.find_opt t.pings_inflight nonce with
        | Some sent ->
          Hashtbl.remove t.pings_inflight nonce;
          Monitor.note_rtt t.monitor (Time.sub (Engine.now t.engine) sent)
        | None -> ())
  | Suspect { view } ->
    Resource.submit t.main ~cost:with_sig (fun () -> note_suspect t ~from ~view)
  | Reply _ -> ()

let create engine net cfg ~id ~service =
  let n = (3 * cfg.f) + 1 in
  let t =
    {
      engine;
      clock = Clock.create engine;
      net;
      probe = Network.probe net;
      cfg;
      id;
      service;
      main = Resource.create engine ~name:(Printf.sprintf "pr%d.main" id);
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
      executed = Request_id_table.create 4096;
      ledger = Pbftcore.Ledger.create (Network.probe net);
      ping_nonce = 0;
      pings_inflight = Hashtbl.create 16;
      span_in = Request_id_table.create 64;
      started = false;
    }
  in
  Network.register_node net id (fun d -> on_delivery t d);
  t

let start t =
  if not t.started then begin
    t.started <- true;
    Monitor.note_pre_prepare t.monitor ~now:(Engine.now t.engine);
    arm_pp_loop t;
    arm_ping_loop t
  end
