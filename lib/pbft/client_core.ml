(** The client core all four stacks share.

    The paper's comparison (Figures 1–3, Table I) is fair only if every
    protocol faces the same client: an open-loop Poisson sender that
    accepts a result once f+1 replies match. This module is that
    client's state and rules — the reply quorum, the pending table, the
    latency histogram, the root span of each traced request and the
    [set_rate] loop. A stack adds how it builds and addresses a request
    and how it reads a reply: the baselines through {!Open_loop}, RBFT
    by hand around its BUSY backoff and retransmit watchdog. *)

open Dessim
open Bftcrypto
open Bftnet
open Types

type 'r pending = {
  sent_at : Time.t;
  span : int;  (** root span of the traced request; [-1] if unsampled *)
  mutable replies : (int * string) list;  (** node, result *)
  mutable done_ : bool;
  data : 'r;  (** the stack's own per-request state *)
}

type ('msg, 'x, 'r) t = {
  engine : Engine.t;
  net : 'msg Network.t;
  f : int;
  id : int;
  payload_size : int;
  mutable rid : int;  (** last request id issued; also the requests sent *)
  mutable rate : float;
  mutable rate_epoch : int;
  pending : 'r pending Request_id_table.t;
  mutable completed : int;
  latencies : Bftmetrics.Hist.t;
  rng : Rng.t;
  ext : 'x;  (** the stack's own per-client state *)
}

(** Draws the client's random stream from the engine. *)
let create engine net ~f ~id ~payload_size ext =
  {
    engine;
    net;
    f;
    id;
    payload_size;
    rid = 0;
    rate = 0.0;
    rate_epoch = 0;
    pending = Request_id_table.create 8;  (* grows on demand; 10^5-client populations exist *)
    completed = 0;
    latencies = Bftmetrics.Hist.create ();
    rng = Engine.fresh_rng engine;
    ext;
  }

(** Register the client on the network. Deliveries whose authenticator
    failed ([corrupted]) are ignored, and so is anything a client sent;
    the rest go to [handle] with [~from], the sending node's id. A
    message's sender is its authenticated source: no payload names it. *)
let listen t handle =
  Network.register_client t.net t.id (fun d ->
      let from = Network.src_node d in
      if from >= 0 && not d.Network.corrupted then handle t ~from d.Network.payload)

let id t = t.id
let sent t = t.rid
let completed t = t.completed
let latencies t = t.latencies
let pending_count t = Request_id_table.length t.pending

(** Start waiting for a request's replies: open its root span (if
    sampled) and enter it in the pending table. *)
let track t (id : request_id) data =
  let now = Engine.now t.engine in
  let span = Bftmetrics.Probe.request_root (Network.probe t.net) ~client:t.id ~rid:id.rid now in
  let p = { sent_at = now; span; replies = []; done_ = false; data } in
  Request_id_table.replace t.pending id p;
  p

(** Count one REPLY from node [from]. Each node counts once per
    request; the request completes when f+1 replies carry the same
    result, which records its latency, closes its span and removes it
    from the pending table. [true] exactly when this reply completed the
    request. *)
let on_reply t (id : request_id) ~from ~result =
  match Request_id_table.find_opt t.pending id with
  | None -> false
  | Some p when p.done_ || List.mem_assoc from p.replies -> false
  | Some p ->
    p.replies <- (from, result) :: p.replies;
    let matching =
      List.length (List.filter (fun (_, r) -> String.equal r result) p.replies)
    in
    matching >= t.f + 1
    && begin
      p.done_ <- true;
      t.completed <- t.completed + 1;
      let now = Engine.now t.engine in
      Bftmetrics.Hist.add t.latencies (Time.to_sec_f (Time.sub now p.sent_at));
      Bftmetrics.Probe.finish (Network.probe t.net) p.span ~t1:now;
      Request_id_table.remove t.pending id;
      true
    end

(** [set_rate t r ~send] (re)starts Poisson sending at [r] requests per
    second, calling [send] for each request; [0.] stops the client. *)
let set_rate t r ~send =
  t.rate <- r;
  t.rate_epoch <- t.rate_epoch + 1;
  let epoch = t.rate_epoch in
  if r > 0.0 then begin
    let rec loop () =
      if t.rate_epoch = epoch && t.rate > 0.0 then begin
        let gap = Rng.exponential t.rng ~mean:(1.0 /. t.rate) in
        ignore
          (Engine.after t.engine (Time.of_sec_f gap) (fun () ->
               if t.rate_epoch = epoch && t.rate > 0.0 then begin
                 send t;
                 loop ()
               end))
      end
    in
    loop ()
  end

(** {1 The baselines' open-loop client} *)

type targets =
  | All  (** broadcast every request to all 3f+1 nodes *)
  | Round_robin  (** send request [rid] of client [c] to node [(c + rid) mod n] *)

(** What a baseline stack contributes to its client. *)
module type PARTS = sig
  type msg

  type ext
  (** per-client state, e.g. Prime's heavy-request switch *)

  val ext : unit -> ext
  val targets : targets

  val request : ext -> request_desc -> msg
  (** The REQUEST message carrying a freshly built descriptor. *)

  val request_size : n:int -> request_desc -> int
  (** The node's wire size of that REQUEST. *)

  val reply : msg -> (request_id * string) option
  (** [Some (id, result)] when the message is a REPLY. *)
end

module Open_loop (S : PARTS) = struct
  type nonrec t = (S.msg, S.ext, unit) t

  let handle t ~from m =
    match S.reply m with
    | Some (id, result) -> ignore (on_reply t id ~from ~result)
    | None -> ()

  let create engine net ~f ~id ?(payload_size = 8) () : t =
    let t = create engine net ~f ~id ~payload_size (S.ext ()) in
    listen t handle;
    t

  let send_one (t : t) =
    t.rid <- t.rid + 1;
    let desc = desc_of_op ~client:t.id ~rid:t.rid (String.make t.payload_size 'x') in
    let msg = S.request t.ext desc in
    let n = (3 * t.f) + 1 in
    let size = S.request_size ~n desc in
    let { span; _ } = track t desc.id () in
    let send node =
      Network.send ~span t.net ~src:(Principal.client t.id) ~dst:(Principal.node node)
        ~size msg
    in
    match S.targets with
    | All ->
      for node = 0 to n - 1 do
        send node
      done
    | Round_robin -> send ((t.id + t.rid) mod n)

  let set_rate t r = set_rate t r ~send:send_one
  let id = id
  let sent = sent
  let completed = completed
  let latencies = latencies
end
