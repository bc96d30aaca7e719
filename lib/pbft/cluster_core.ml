(** The cluster scaffold all four stacks share: an engine, a network,
    3f+1 started nodes and a set of clients, plus the read-outs the
    harness, the chaos runner and the tests take from every stack —
    progress at the most advanced node and agreement of the correct
    nodes' execution ledgers. A stack contributes its node and client
    constructors ({!PARTS}); its cluster module is {!Make} applied to
    them. *)

open Dessim

(** What every stack's cluster offers. *)
module type S = sig
  type t
  type node
  type client
  type msg

  val engine : t -> Engine.t
  val network : t -> msg Bftnet.Network.t
  val node : t -> int -> node
  val nodes : t -> node array
  val client : t -> int -> client
  val clients : t -> client array

  val run_for : t -> Time.t -> unit
  (** Advance virtual time by the given duration. *)

  val total_executed : t -> int
  (** Requests executed by the most advanced node: a Byzantine or
      lagging node must not distort progress readings. *)

  val throughput_between : t -> Time.t -> Time.t -> float
  (** Executed requests per second at the most advanced node over a
      window. *)

  val agreement_ok : t -> faulty:int list -> bool
  (** All nodes outside [faulty] executed the same number of requests
      with identical execution digests. Nodes that state-transferred
      are skipped: they adopted checkpointed state wholesale, so their
      local execution log is shorter (in a real deployment the
      application snapshot travels with the checkpoint). *)
end

(** What a stack contributes to its cluster. *)
module type PARTS = sig
  type config
  type msg

  type t
  (** a node *)

  type client

  val n : config -> int
  (** Number of nodes, 3f+1. *)

  val transport : Bftnet.Network.transport

  val create :
    Engine.t -> msg Bftnet.Network.t -> config -> id:int -> service:Bftapp.Service.t -> t

  val create_client :
    Engine.t -> msg Bftnet.Network.t -> config -> id:int -> payload_size:int -> client

  val start : t -> unit
  val id : t -> int
  val ledger : t -> Ledger.t

  val skips_agreement : t -> bool
  (** The node state-transferred, so {!S.agreement_ok} skips it. *)
end

module Make (P : PARTS) = struct
  type node = P.t
  type client = P.client
  type msg = P.msg

  type t = {
    engine : Engine.t;
    net : msg Bftnet.Network.t;
    config : P.config;
    seed : int64;
    nodes : node array;
    clients : client array;
  }

  (** Build the deployment: nodes are created, then clients, then the
      nodes are started. [service] is instantiated once per node. *)
  let assemble ~seed ~net_config ~service ~clients ~payload_size config =
    let engine = Engine.create ~seed () in
    let net = Bftnet.Network.create engine net_config in
    let nodes =
      Array.init (P.n config) (fun id ->
          P.create engine net config ~id ~service:(service ()))
    in
    let clients =
      Array.init clients (fun id -> P.create_client engine net config ~id ~payload_size)
    in
    Array.iter P.start nodes;
    { engine; net; config; seed; nodes; clients }

  (** [assemble] on the stack's default network ([P.transport] over
      {!Bftnet.Network.default_config}), serving {!Bftapp.Null_service}
      by default. *)
  let create ?(seed = 42L) ?(clients = 0) ?(payload_size = 8)
      ?(service = fun () -> Bftapp.Null_service.create ()) config =
    let net_config =
      {
        (Bftnet.Network.default_config ~nodes:(P.n config)) with
        Bftnet.Network.transport = P.transport;
      }
    in
    assemble ~seed ~net_config ~service ~clients ~payload_size config

  let engine t = t.engine
  let network t = t.net
  let config t = t.config
  let seed t = t.seed
  let node t i = t.nodes.(i)
  let nodes t = t.nodes
  let client t i = t.clients.(i)
  let clients t = t.clients

  let run_for t d = Engine.run ~until:(Time.add (Engine.now t.engine) d) t.engine

  let executed node = Ledger.count (P.ledger node)

  let most_advanced t =
    Array.fold_left
      (fun best node -> if executed node > executed best then node else best)
      t.nodes.(0) t.nodes

  let total_executed t = executed (most_advanced t)

  let throughput_between t start stop =
    Bftmetrics.Throughput.rate_between (Ledger.counter (P.ledger (most_advanced t))) start
      stop

  let agreement_ok t ~faulty =
    let correct =
      Array.to_list t.nodes
      |> List.filter (fun node ->
             (not (List.mem (P.id node) faulty)) && not (P.skips_agreement node))
    in
    match List.map P.ledger correct with
    | [] -> true
    | first :: rest ->
      List.for_all
        (fun l ->
          Ledger.count l = Ledger.count first
          && String.equal (Ledger.digest l) (Ledger.digest first))
        rest
end

(** A whole stack — its node, client and cluster modules — as the
    generic experiment and chaos drivers see it. *)
module type STACK = sig
  module Node : sig
    type t

    val ledger : t -> Ledger.t
    val set_cpu_factor : t -> float -> unit
    val set_clock_factor : t -> float -> unit
  end

  module Client : sig
    type t

    val set_rate : t -> float -> unit
    val sent : t -> int
    val completed : t -> int
    val latencies : t -> Bftmetrics.Hist.t
  end

  module Cluster : S with type node = Node.t and type client = Client.t
end
