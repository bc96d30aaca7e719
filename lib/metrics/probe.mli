(** One run's instrumentation plane.

    A probe holds all the observation state of a simulation run: the
    audit-event subscribers and the declared-faulty set, the metric
    registry and its switch (crypto op/byte counters included), the
    span buffer with its sample rate and close subscribers, and the
    footprints with their switches. A cluster hands its probe to the
    engine and the network, and through the network to every node,
    replica and client, so two runs in one process share nothing.

    Protocol code makes one typed call per protocol event
    ({!request_received}, {!batch_ordered}, {!dropped}, {!job}, ...),
    which fans out to audit events, metric updates and span stamps
    behind the probe's switches. With every switch off a call costs a
    few field reads and branches and allocates nothing.

    {!default} is the one process-global probe. It serves only the
    [benchmark/] entry points DESIGN §9 lists: [Rbft.Cluster.create]
    and [Bftaudit.Auditor.attach] fall back to it when given no probe,
    and [Bftmetrics.Registry.default/enable/disable],
    [Bftspan.Tracer.enable/disable/reset/to_array] and
    [Bftaudit.Auditor.reset_declared] act on it. *)

type t

val create : unit -> t
(** Every switch off; the registry holds the crypto counter families. *)

val default : t

(** {1 Audit events} *)

val audit : t -> bool
(** True while an event subscriber is attached: guard event
    construction with it. *)

val subscribe : t -> (Event.t -> unit) -> (unit -> unit)
(** Subscribers see events in subscription order. Like every
    [subscribe_*] below, returns the function that unsubscribes. *)

val emit : t -> Event.t -> unit
val emit_at : t -> Dessim.Time.t -> node:int -> instance:int -> Event.kind -> unit

val declare_faulty : t -> int list -> unit
(** Byzantine nodes, which attached auditors exclude from their
    conclusions. *)

val reset_declared : t -> unit
val is_declared : t -> int -> bool

type violation = { time : Dessim.Time.t; invariant : string; detail : string }

val subscribe_violations : t -> (violation -> unit) -> (unit -> unit)

val violation : t -> violation -> unit
(** Auditors report each violation here before any raise. *)

(** {1 Metrics} *)

val registry : t -> Registry.t
val metrics : t -> bool

val set_metrics : t -> bool -> unit
(** Gates the updates; handles stay registered either way. *)

type crypto_op = Mac_gen | Mac_verify | Authenticator | Digest | Sig_sign | Sig_verify

val crypto : t -> crypto_op -> bytes:int -> unit

(** {1 Footprints} *)

type footprint = private {
  fp_name : string;
  fp_owner : string;
  fp_parent : string option;
  mutable fp_entries : unit -> int;
  mutable fp_root : unit -> Obj.t option;
  mutable fp_peak : int;
}

val footprints : t -> bool
val set_footprints : t -> bool -> unit
val deep : t -> bool

val set_deep : t -> bool -> unit
(** Lets snapshots traverse roots with [Obj.reachable_words]. *)

val footprint :
  t -> ?owner:string -> ?parent:string -> name:string -> entries:(unit -> int) ->
  root:(unit -> Obj.t option) -> unit -> footprint
(** Register, or rebind by (name, owner) with a fresh peak, a
    footprint and its [bft_footprint_entries] gauge. Made whatever the
    switches, so the registration order depends on the run alone.
    [owner] defaults to ["global"]. *)

val footprint_list : t -> footprint list

val note : t -> footprint -> unit
(** Hot path: fold the entry count into the peak while tracking is on. *)

val observe : footprint -> unit
(** Fold the entry count into the peak. *)

(** {1 Spans}

    Span ids index the buffer in allocation order; [-1] is "untraced"
    and makes the calls below no-ops. *)

val spans : t -> bool

val enable_spans : ?sample:int -> t -> unit
(** Record every [sample]-th request (default 1). *)

val disable_spans : t -> unit

val reset_spans : t -> unit
(** Drop the recorded spans and stop recording. *)

val span_count : t -> int
val span_get : t -> int -> Span.t
val span_array : t -> Span.t array

val request_root : t -> client:int -> rid:int -> Dessim.Time.t -> int
(** The client root span of request [rid], if it is sampled. *)

val span :
  t -> parent:int -> tag:Tag.t -> node:int -> instance:int -> t0:Dessim.Time.t ->
  t1:Dessim.Time.t -> int

val job : t -> parent:int -> tag:Tag.t -> node:int -> instance:int -> now:Dessim.Time.t -> int
(** A queue-wait span and a work span for a CPU job, closed by
    {!on_job_start}; the work span's id goes to [Resource.submit]. *)

val on_job_start : t -> int -> start:Dessim.Time.t -> finish:Dessim.Time.t -> unit
(** The engine's job-start hook. *)

val finish : t -> int -> t1:Dessim.Time.t -> unit
(** Close a span and hand it to the close subscribers. *)

val subscribe_spans : t -> (Span.t -> unit) -> (unit -> unit)

(** {1 Protocol events}

    Components register their metric handles once, at creation, in
    the order that feeds the export and bundle digests. *)

type node_metrics
type replica_metrics
type net_metrics
type channel = Node_node | Node_client | Client_node

val node_metrics : t -> node:int -> instances:int -> node_metrics
val replica_metrics : t -> node:int -> instance:int -> replica_metrics
val net_metrics : t -> net_metrics

val request_received : t -> node_metrics -> Dessim.Time.t -> client:int -> rid:int -> size:int -> unit

val request_dispatched :
  t -> node_metrics -> Dessim.Time.t -> client:int -> rid:int -> first_seen:Dessim.Time.t -> unit

val request_ordered : t -> node_metrics -> instance:int -> latency:Dessim.Time.t -> unit

val request_executed :
  t -> node_metrics -> dispatched:Dessim.Time.t option -> Dessim.Time.t -> unit
(** [dispatched]: when the request was dispatched, if it was. *)

val executed :
  t -> Dessim.Time.t -> node:int -> instance:int -> client:int -> rid:int -> digest:string -> unit
(** A ledger records an execution. *)

val instance_changed :
  t -> node_metrics -> Dessim.Time.t -> instance:int -> cpi:int -> recovery:bool -> unit

val monitor_verdict :
  t -> node_metrics -> Dessim.Time.t -> instance:int -> master_rate:float -> backup_rate:float ->
  ratio:float -> delta:float -> suspicious:bool -> unit

val batch_flushed : t -> replica_metrics -> size:int -> unit

val batch_ordered :
  t -> replica_metrics -> Dessim.Time.t -> seq:int -> count:int -> digest:string ->
  t_pp:Dessim.Time.t -> t_prepared:Dessim.Time.t -> unit

val view_entered : t -> replica_metrics -> Dessim.Time.t -> view:int -> primary:int -> unit
val delivered : t -> net_metrics -> channel -> size:int -> unit

val dropped :
  t -> net_metrics -> channel -> Dessim.Time.t -> node:int -> src:'a -> show:('a -> string) ->
  reason:string -> unit
(** A message to [node] ([-1]: a client) is dropped; [show src] names
    the sender in the audit event. *)
