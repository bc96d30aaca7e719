(** An open-loop RBFT client.

    The paper targets open-loop systems (Section II): clients send
    requests at their own rate without waiting for replies. A client
    signs each request, MAC-authenticates it for every node, sends it
    to all nodes (step 1) and accepts a result once f+1 matching
    REPLYs arrive (step 6).

    Fault injection covers the client-side actions of the paper's
    attacks: invalid signatures, selectively broken MAC entries
    (worst-attack-1) and heavy requests (the Prime attack). *)

open Dessim

type t

type behaviour = {
  mutable sig_valid : bool;  (** produce valid signatures *)
  mutable mac_invalid_for : int list;
      (** nodes receiving a broken authenticator entry *)
  mutable heavy : bool;  (** send heavy (10x execution cost) requests *)
  mutable make_op : (int -> string) option;
      (** custom operation builder (rid → op), e.g. encoded
          {!Bftapp.Kvstore} operations; [None] (the default) sends the
          null-service payload *)
}

val create :
  Engine.t ->
  Messages.t Bftnet.Network.t ->
  Params.t ->
  id:int ->
  ?payload_size:int ->
  unit ->
  t

val id : t -> int

val behaviour : t -> behaviour
(** The client's fault-injection switches, for the caller to read or
    write. Until the first call every client shares one honest record
    that nothing writes; the first call gives the client its own copy,
    so writing it changes no other client. *)

val set_rate : t -> float -> unit
(** [set_rate t r] starts (or retunes) open-loop sending at [r]
    requests per second; [0.] stops the client. Cancels closed-loop
    mode. *)

val set_closed_loop : t -> outstanding:int -> unit
(** Switch to closed-loop operation: keep [outstanding] requests in
    flight, sending a new one as each completes. The paper scopes RBFT
    to open-loop systems (Section II) precisely because a closed-loop
    client is throttled by the master instance, so the backup
    instances can never observe a higher rate than a slow master —
    this mode exists to demonstrate that limitation (see the
    closed-loop ablation). *)

val send_one : t -> unit
(** Send a single request immediately (used by examples and tests). *)

val send_burst : t -> count:int -> unit
(** [send_burst t ~count] sends [count] requests back-to-back without
    arming any rate timer — the model checker's workload: a fixed,
    finite set of requests so the reachable state space is finite. *)

val sent : t -> int
val completed : t -> int
(** Requests for which f+1 matching replies arrived. *)

val busy_replies : t -> int
(** BUSY backpressure replies received (each counted once per sending
    node per attempt). *)

val retries : t -> int
(** Retries triggered by f+1 distinct BUSY replies: the request was
    re-sent under the same request id after a backed-off wait
    ({!Bftflow.Backoff}), never earlier than the servers' retry
    hints. *)

val pending_count : t -> int
(** Requests sent and not yet completed (the client's reply-collection
    table; capacity probes sum it across the population). *)

val latencies : t -> Bftmetrics.Hist.t
(** End-to-end latency distribution (seconds). Until the first request
    completes it is one empty histogram that all idle clients share:
    read it, never add to it. *)

val completion_counter : t -> Bftmetrics.Throughput.t
(** Completions over time. Until the first request completes it is one
    empty window that all idle clients share: read it, never record in
    it. *)
