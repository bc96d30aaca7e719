(** The node shell all four stacks share.

    Every stack's node is the same shell around its protocol code: an
    identity on the network, CPU threads that pay for what the node
    does, an execution ledger, and the same rules for sending,
    receiving and executing. This module is that shell. A stack adds
    its message type and sizes ([size], [cost_bytes]), its threads and
    its protocol handlers.

    - {b Outbound.} {!send} charges the sending thread
      [Costmodel.send] on the message's [cost_bytes], then hands the
      message to the network. {!broadcast} first charges one
      authentication for the whole message under the stack's
      {!scheme}: a MAC authenticator with an entry per node, or one
      signature.
    - {b Inbound.} {!listen} charges every delivery its receive cost
      and its verification cost under the scheme. A forged delivery —
      one the chaos engine corrupted, or a node-only message from a
      client — pays both on a given thread and is dropped. Everything
      else reaches the stack's handler with its authenticated sender.
      This is the one place a node reads a delivery's sender and its
      [corrupted] flag.
    - {b Execution.} {!Replycache} is the node's executed-results
      table: per client, the set of executed request ids and the last
      few results. {!execute} runs a request against the service, adds
      it to the ledger, authenticates the REPLY and sends it.
      {!resend_reply} answers a REQUEST that already executed from the
      cache. *)

open Dessim
open Types

val exec_cost : Time.t
(** 1 us: the least virtual execution cost of one request; a service
    may charge more per operation. RBFT, Aardvark and Spinning use this
    floor; Prime's is configurable. *)

(** How a node authenticates what it broadcasts and verifies what it
    receives. *)
type scheme =
  | Mac  (** a MAC authenticator: one MAC per destination node *)
  | Signature  (** one signature *)

type 'msg t = private {
  engine : Engine.t;
  clock : Clock.t;  (** the node's local clock for its timers; skewable *)
  net : 'msg Bftnet.Network.t;
  probe : Bftmetrics.Probe.t;
  id : int;
  n : int;  (** nodes in the cluster *)
  service : Bftapp.Service.t;
  ledger : Ledger.t;
  executed : Replycache.t;  (** executed rids and the last results per client *)
  name : string;
  mutable threads : Resource.t list;
  size : 'msg -> int;
  cost_bytes : 'msg -> size:int -> int;
  scheme : scheme;
  authenticate_replies : bool;
  node_only : 'msg -> bool;
  reply_msg : request_id -> string -> 'msg;
  self : Bftcrypto.Principal.t;
  nodes : Bftcrypto.Principal.t array;  (** every node's principal, built once *)
}
(** The stacks read the fields directly; every change goes through the
    functions below. *)

val create :
  Engine.t ->
  'msg Bftnet.Network.t ->
  id:int ->
  n:int ->
  service:Bftapp.Service.t ->
  name:string ->
  size:('msg -> int) ->
  cost_bytes:('msg -> size:int -> int) ->
  scheme:scheme ->
  authenticate_replies:bool ->
  node_only:('msg -> bool) ->
  reply:(request_id -> string -> 'msg) ->
  'msg t
(** The shell of node [id] of [n]. [name] prefixes its thread names
    (["n1.verification"]). [size m] is [m]'s wire size; [cost_bytes m
    ~size] the bytes a thread touches to send or receive it.
    [authenticate_replies] says whether a REPLY pays one MAC or
    signature under [scheme]. [node_only m] holds for the messages
    only nodes may send. [reply] builds a REPLY. *)

val thread : 'msg t -> string -> Resource.t
(** A new CPU thread of the node, named [name.<thread>]; {!set_cpu_factor}
    covers it. *)

val listen :
  'msg t ->
  forged_on:Resource.t ->
  ?on_forged:(int -> unit) ->
  (from:int -> recv:Time.t -> verify:Time.t -> 'msg Bftnet.Network.delivery -> unit) ->
  unit
(** Install the node's message handler. Each delivery costs [recv]
    (handling plus byte touching) and [verify] (its authenticator or
    signature); the handler decides where to charge them. A forged
    delivery is charged both on [forged_on], then dropped;
    [on_forged] (default: nothing) runs there with its claimed sender,
    [-1] for a client. The handler gets every other delivery and its
    authenticated sender, [-1] for a client. *)

(** {1 Outbound} *)

val send : 'msg t -> Resource.t -> dst:Bftcrypto.Principal.t -> 'msg -> unit
(** Charge [thread] the send cost, then send. *)

val broadcast : ?span:int -> 'msg t -> Resource.t -> 'msg -> unit
(** Charge [thread] one authentication of the message, then a send per
    other node. [?span] (default [-1]) is the parent span of a traced
    message. *)

(** {1 Execution} *)

val has_executed : 'msg t -> request_id -> bool

val resend_reply : 'msg t -> Resource.t -> request_id -> bool
(** If the request already executed, send its cached REPLY again from
    [thread] and return [true]. A request whose result has left the
    client's reply ring gets no answer: its client received the reply
    long ago. *)

val exec_cost_of : 'msg t -> request_desc -> Time.t
(** {!exec_cost}, or the service's cost of the operation if higher. *)

val apply : 'msg t -> instance:int -> request_desc -> string
(** Execute the request against the service, record its result and
    add it to the ledger (its [Executed] event names [instance]).
    Returns the result. *)

val reply : 'msg t -> Resource.t -> span:int -> request_id -> string -> unit
(** Authenticate a REPLY carrying the result if the stack does, and
    send it to the client from [thread]; [span] parents its transit. *)

val execute : 'msg t -> Resource.t -> span:int -> request_desc -> unit
(** {!apply} on instance 0, then {!reply}. The caller has paid the
    execution cost. *)

val submit_execution : 'msg t -> Resource.t -> parent:int -> request_desc -> unit
(** Queue the request's execution on [thread] at {!exec_cost_of},
    unless it already executed: the job {!execute}s it, under an
    execution span parented on [parent]. *)

val audit : 'msg t -> instance:int -> Bftmetrics.Event.kind -> unit
(** Emit an audit event from this node now. Callers guard with
    [Probe.audit] so the disabled path allocates nothing. *)

val set_clock_factor : 'msg t -> float -> unit
(** Skew the node's local clock. *)

val set_cpu_factor : 'msg t -> float -> unit
(** Run every thread of the node at the given speed multiple. *)
