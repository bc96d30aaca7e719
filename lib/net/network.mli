(** The simulated cluster network.

    Reproduces the paper's testbed topology (Sections V and VI-A):
    [n] nodes interconnected by a non-blocking Gigabit switch, each
    node equipped with one dedicated NIC per other node plus one NIC
    shared by all client traffic (the Aardvark/RBFT NIC-separation
    design). Every NIC rate-limits traffic in both directions; a
    message experiences sender serialization, propagation latency
    (plus jitter and, under TCP, protocol overhead) and receiver
    serialization. Nodes may close the NIC facing a flooding peer for
    a configurable period, as RBFT does.

    The payload type is polymorphic: each protocol instantiates the
    network with its own message union. The network charges *link*
    costs only; CPU costs of handling messages are charged by the
    protocol layer through {!Bftcrypto.Costmodel}. *)

open Dessim
open Bftcrypto

type transport = Tcp | Udp

(** The testbed's Gigabit LAN, the same for every run (Section VI-A). *)

val latency : Time.t
(** One-way propagation delay: 60 us. *)

val bandwidth_bps : float
(** Per-NIC rate, each direction: 1 Gbps. *)

val tcp_overhead : Time.t
(** Extra latency per message under TCP: 120 us. *)

val frame_overhead_bytes : int
(** Framing bytes added to every message's wire size: 60. *)

type config = {
  nodes : int;  (** number of nodes (3f+1) *)
  transport : transport;
  jitter : Time.t;  (** uniform extra delay in [0, jitter) *)
}

val default_config : nodes:int -> config
(** TCP with 20 us of jitter. *)

type 'a t

type 'a delivery = {
  src : Principal.t;
  dst : Principal.t;
  size : int;  (** payload size in bytes, excluding framing *)
  payload : 'a;
  sent_at : Time.t;
  delivered_at : Time.t;
  corrupted : bool;
      (** set by the chaos engine: the payload reached the receiver but
          its MAC/digest check must fail. Receivers treat such messages
          exactly like messages with an invalid authenticator. *)
  span : int;
      (** span id of the transit span recorded for this delivery
          ([-1] when the message is untraced): receivers parent their
          own processing spans on it, which is how trace causality
          crosses node boundaries. *)
}

val src_node : 'a delivery -> int
(** The sending node's id, or [-1] when a client sent the message.
    [src] is the authenticated source (it stands for the MAC or
    signature envelope), so this is the only sender a receiver may
    count: no payload names its sender. *)

(** {2 Fault interposition}

    The chaos engine ({!Bftchaos}) installs a single hook that rules on
    every message at send time. The hook must be deterministic given the
    scenario seed: it is consulted exactly once per [send]. *)

type fault_verdict = {
  fv_drop : bool;  (** silently lose the message *)
  fv_duplicates : int;  (** deliver this many {e extra} copies *)
  fv_extra_delay : Time.t;  (** added to the propagation delay *)
  fv_corrupt : bool;  (** deliver with [corrupted = true] *)
}

val pass_verdict : fault_verdict
(** Verdict that lets the message through untouched. *)

type fault_hook = src:Principal.t -> dst:Principal.t -> size:int -> fault_verdict

val set_fault_hook : 'a t -> fault_hook option -> unit
(** Installs (or clears) the fault hook. At most one hook is active;
    installing a new one replaces the previous. *)

val set_describe : 'a t -> ('a -> string) option -> unit
(** Installs a payload description function used to label node-bound
    deliveries when the engine is capturing scheduling choices
    ({!Dessim.Engine.set_choice_capture}). The label feeds the model
    checker's state fingerprints, so it should identify the message
    (type tag plus distinguishing fields) deterministically. Never
    consulted outside capture mode. *)

val create : probe:Bftmetrics.Probe.t -> Engine.t -> config -> 'a t
(** A network whose deliveries, drops and transit spans are reported
    to [probe]; every node and client attached to it reports to the
    same probe ({!probe}). *)

val probe : 'a t -> Bftmetrics.Probe.t

val engine : 'a t -> Engine.t
val config : 'a t -> config

val register_node : 'a t -> int -> ('a delivery -> unit) -> unit
(** [register_node t i handler] installs the message handler of node
    [i]. Must be called before traffic reaches the node. *)

val register_client : 'a t -> int -> ('a delivery -> unit) -> unit
(** Registers a client endpoint: records only its handler, in an array
    indexed by client id; registering an id again replaces its handler.
    A message to an id with no handler is dropped ("no-handler"). The
    client's NIC (one per client) is built on its first send or the
    first delivery to it, so an idle registered client costs no port.
    Raises [Invalid_argument] on a negative id. *)

val send :
  ?span:int ->
  ?span_tag:Bftmetrics.Tag.t ->
  'a t ->
  src:Principal.t ->
  dst:Principal.t ->
  size:int ->
  'a ->
  unit
(** [send t ~src ~dst ~size payload] queues one message. [size] is the
    wire size of the payload as the protocol's size model computes it.
    Messages to unregistered endpoints are counted as dropped.

    [?span] (default [-1]) piggybacks a parent span id on the message:
    when the tracer is live, delivery records a completed transit span
    covering the full wire time and hands its id to the receiver in
    {!delivery.span}. [?span_tag] (default {!Bftmetrics.Tag.Net_transit})
    lets reply traffic label its transit {!Bftmetrics.Tag.Reply} so the
    analyzer reports it as its own stage. Dropped messages (chaos,
    closed NIC, no handler) record nothing — the request's root span
    stays open, which is exactly how the analyzer flags loss. *)

val close_nic : 'a t -> node:int -> peer:Principal.t -> for_:Time.t -> unit
(** [close_nic t ~node ~peer ~for_] makes node [node] drop everything
    arriving from [peer] for the given duration — the flood defence the
    paper describes in Section V.

    Re-open semantics: the NIC reopens exactly when the closure window
    expires — a message arriving at [now + for_] or later is delivered,
    one arriving strictly before is dropped. Overlapping calls {e
    extend} the window to the latest requested expiry; a second,
    shorter closure never truncates an earlier longer one (otherwise a
    flooder could reset its own punishment by triggering a smaller
    penalty). *)

val nic_closed : 'a t -> node:int -> peer:Principal.t -> bool

(** Statistics, for tests and reporting. *)

val messages_delivered : 'a t -> int
val messages_dropped : 'a t -> int
val bytes_delivered : 'a t -> int
