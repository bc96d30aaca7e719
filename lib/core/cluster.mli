(** Assemble a full RBFT deployment: engine, network, 3f+1 nodes and a
    set of clients. The entry point used by examples, tests and the
    benchmark harness. *)

open Bftapp

include
  Pbftcore.Cluster_core.S
    with type node = Node.t
     and type client = Client.t
     and type msg = Messages.t

val create :
  ?probe:Bftmetrics.Probe.t ->
  ?seed:int64 ->
  ?transport:Bftnet.Network.transport ->
  ?net_config:Bftnet.Network.config ->
  ?service:(unit -> Service.t) ->
  ?clients:int ->
  ?payload_size:int ->
  Params.t ->
  t
(** [create params] builds the system. [service] is instantiated once
    per node (defaults to {!Bftapp.Null_service}); [clients] endpoints
    are created (default 0 — add load later via {!client}). Nodes are
    started (monitoring armed). [net_config] overrides the whole
    network configuration (it wins over [transport]); the model checker
    passes a zero-jitter config so no per-send randomness survives.
    Every node, replica and client reports to [probe]. The fallback to
    {!Bftmetrics.Probe.default} when none is given serves
    [benchmark/] only (DESIGN §9). *)

val params : t -> Params.t

val describe : t -> (string * string) list
(** Stable textual identity of the deployment — protocol, n, f,
    instance count, client count, seed, transport — recorded into
    incident-bundle configs so a bundle is self-describing. *)

val master_primary : t -> int
(** The node currently acting as primary of node 0's master instance
    (re-read at incident-dump time, after any instance change). *)
