open Dessim
open Bftcrypto
open Bftnet
open Pbftcore.Types
module Core = Pbftcore.Client_core

type behaviour = {
  mutable sig_valid : bool;
  mutable mac_invalid_for : int list;
  mutable heavy : bool;
  mutable make_op : (int -> string) option;
}

(* Per-request state on top of the core's: the request itself, retained
   for retries, the retransmissions it has queued (its watchdog, or
   [no_timer], and the BUSY backoff retries still to fire, all
   cancelled when the request completes), and the backpressure state —
   distinct nodes that answered BUSY since the last (re)send, the
   largest retry hint among them, and how many retries happened
   (drives the exponential backoff). *)
type retry = {
  req : Messages.request;
  mutable watchdog : Engine.timer;
  mutable backoffs : Engine.timer list;
  mutable busy_from : int list;
  mutable busy_hint : Time.t;
  mutable attempt : int;
}

type state = {
  params : Params.t;
  mutable behaviour : behaviour;  (* [shared_honest] until {!behaviour} is asked *)
  mutable closed_loop : int;  (* outstanding-request window; 0 = open loop *)
  mutable completions : Bftmetrics.Throughput.t;  (* [idle] until a completion *)
  (* Lazily created on the first BUSY so runs that never shed draw
     exactly the same random streams as before the gate existed. *)
  mutable backoff : Bftflow.Backoff.t option;
  mutable busy_replies : int;
  mutable retries : int;
}

type t = (Messages.t, state, retry) Core.t

let id = Core.id
let sent = Core.sent
let completed = Core.completed
let latencies = Core.latencies
let pending_count = Core.pending_count
(* The behaviour every client starts with and the completion window
   of every client that has completed nothing: one of each, shared by
   all clients and never written. Most clients of a large population
   never misbehave, and many never complete a request. *)
let honest () = { sig_valid = true; mac_invalid_for = []; heavy = false; make_op = None }
let shared_honest = honest ()
let idle = Bftmetrics.Throughput.create ()

(* A caller may write the record it gets, so a client gets its own
   copy before the first one leaves. *)
let behaviour (t : t) =
  if t.ext.behaviour == shared_honest then t.ext.behaviour <- honest ();
  t.ext.behaviour

let completion_counter (t : t) = t.ext.completions
let busy_replies (t : t) = t.ext.busy_replies
let retries (t : t) = t.ext.retries

let backoff_of (t : t) =
  match t.ext.backoff with
  | Some b -> b
  | None ->
    let b = Bftflow.Backoff.create (Rng.split t.rng) in
    t.ext.backoff <- Some b;
    b

(* The watchdog of a request that has none. It is never scheduled, so
   cancelling it is a no-op that writes nothing, and all requests can
   share it. *)
let no_timer = Engine.timer ignore

let rec on_reply (t : t) (id : request_id) ~from ~result =
  match Core.completed_by t id ~from ~result with
  | None -> ()
  | Some p ->
    Engine.cancel t.engine p.data.watchdog;
    List.iter (Engine.cancel t.engine) p.data.backoffs;
    if t.ext.completions == idle then t.ext.completions <- Bftmetrics.Throughput.create ();
    Bftmetrics.Throughput.record t.ext.completions ~now:(Engine.now t.engine);
    (* Closed loop: each completion funds the next request. *)
    if t.ext.closed_loop > 0 then send_one t

and transmit (t : t) ~span (req : Messages.request) =
  let msg = Messages.Request req in
  let n = Params.n t.ext.params in
  let size = Messages.request_wire_size req ~n in
  for node = 0 to n - 1 do
    Network.send ~span t.net ~src:(Principal.client t.id) ~dst:(Principal.node node) ~size
      msg
  done

(* Retransmit watchdog, armed only when the admission gate exists
   (zero scheduled events otherwise, so gate-off runs replay
   identically). BUSY-triggered retries need f+1 distinct refusals,
   but admission decisions are independent per node: a request can be
   shed by fewer than f+1 nodes yet still miss its f+1 PROPAGATE
   quorum when the admitting nodes include faulty non-propagating
   ones — wedged forever while holding admission slots at every node
   that accepted it. The watchdog retransmits unanswered requests on a
   doubling timer; retransmits are idempotent (admitted nodes treat
   them as duplicates) and a fresh competitor for a slot everywhere
   the request was shed. A completed request cancels its watchdog and
   every backoff retry still to fire, and a cancelled event leaves the
   engine's heap at once: the heap holds no timer, and no closure, of
   an answered request. *)
and arm_watchdog (t : t) (p : retry Core.pending) ~rto =
  p.data.watchdog <-
    Engine.after t.engine rto (fun () ->
        t.ext.retries <- t.ext.retries + 1;
        transmit t ~span:p.span p.data.req;
        arm_watchdog t p ~rto:(Time.min Bftflow.Backoff.watchdog_cap (Time.mul_f rto 2.0)))

and send_one (t : t) =
  let req = make_request t in
  let p =
    Core.track t req.Messages.desc.id
      { req; watchdog = no_timer; backoffs = []; busy_from = []; busy_hint = Time.zero;
        attempt = 0 }
  in
  transmit t ~span:p.span req;
  if t.ext.params.Params.admission_budget > 0 then
    arm_watchdog t p ~rto:Bftflow.Backoff.watchdog_first

and make_request (t : t) =
  t.rid <- t.rid + 1;
  let b = t.ext.behaviour in
  let desc =
    match b.make_op with
    | Some f -> desc_of_op ~client:t.id ~rid:t.rid (f t.rid)
    | None -> Core.synthetic t ~heavy:b.heavy
  in
  { Messages.desc; sig_valid = b.sig_valid; mac_invalid_for = b.mac_invalid_for }

(* BUSY backpressure: a single refusal proves nothing (a Byzantine node
   can always say BUSY), but f+1 distinct refusals include one from a
   correct node — the request was genuinely shed somewhere and may
   never reach the f+1 PROPAGATE quorum, so retry it. The retry reuses
   the same request id: nodes that admitted the original treat it as a
   duplicate (or re-reply from the executed table), so retries are
   idempotent. The wait is the server hint floored exponential backoff
   of {!Bftflow.Backoff}, drawn from this client's own stream for
   determinism. *)
let on_busy (t : t) (id : request_id) ~from ~retry_after =
  match Core.find_pending t id with
  | None -> ()
  | Some p when p.done_ -> ()
  | Some p ->
    let r = p.data in
    if not (List.mem from r.busy_from) then begin
      r.busy_from <- from :: r.busy_from;
      r.busy_hint <- Time.max r.busy_hint retry_after;
      t.ext.busy_replies <- t.ext.busy_replies + 1;
      if List.length r.busy_from >= t.f + 1 then begin
        let delay =
          Bftflow.Backoff.delay (backoff_of t) ~attempt:r.attempt ~hint:r.busy_hint
        in
        r.attempt <- r.attempt + 1;
        r.busy_from <- [];
        r.busy_hint <- Time.zero;
        t.ext.retries <- t.ext.retries + 1;
        let now = Engine.now t.engine in
        (* Attribute the idle wait to its own tag so the latency
           breakdown shows backoff instead of blaming net transit. *)
        ignore
          (Bftmetrics.Probe.span (Network.probe t.net) ~parent:p.span ~tag:Backoff ~node:(-1)
             ~instance:(-1) ~t0:now ~t1:(Time.add now delay));
        (* The retry drops itself, and any other that fired, from the
           list as it fires, so the list holds only queued timers. *)
        r.backoffs <-
          Engine.after t.engine delay (fun () ->
              p.data.backoffs <- List.filter Engine.pending p.data.backoffs;
              transmit t ~span:p.span p.data.req)
          :: r.backoffs
      end
    end

let send_burst t ~count =
  for _ = 1 to count do
    send_one t
  done

let set_rate (t : t) r =
  t.ext.closed_loop <- 0;
  Core.set_rate t r ~send:send_one

let set_closed_loop (t : t) ~outstanding =
  Core.set_rate t 0.0 ~send:send_one;
  t.ext.closed_loop <- outstanding;
  (* Top up to the window, counting requests already in flight. *)
  for _ = 1 to Stdlib.max 0 (outstanding - pending_count t) do
    send_one t
  done

let handle t ~from (m : Messages.t) =
  match m with
  | Messages.Reply { id; result } -> on_reply t id ~from ~result
  | Messages.Busy { id; retry_after } -> on_busy t id ~from ~retry_after
  | Messages.Request _ | Messages.Propagate _ | Messages.Propagate_batch _
  | Messages.Instance _ | Messages.Instance_change _ ->
    ()

let create engine net params ~id ?(payload_size = 8) () =
  let t =
    Core.create engine net ~f:params.Params.f ~id ~payload_size
      {
        params;
        behaviour = shared_honest;
        closed_loop = 0;
        completions = idle;
        backoff = None;
        busy_replies = 0;
        retries = 0;
      }
  in
  Core.listen t handle;
  t
