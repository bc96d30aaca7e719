(** RBFT: Redundant Byzantine Fault Tolerance (Aublin, Ben Mokhtar,
    Quéma — ICDCS 2013).

    The library runs f+1 parallel PBFT-style ordering instances on
    3f+1 nodes; only the master instance's order is executed, and the
    backup instances let every node monitor the master primary's
    throughput and fairness. A slow or unfair master primary triggers
    a coordinated protocol instance change.

    Entry point: {!Cluster.create} with {!Params.default}.

    Kept only for [benchmark/] (DESIGN §9): {!Cluster.create}'s
    fallback to {!Bftmetrics.Probe.default} when given no probe. *)

module Params = Params
module Messages = Messages
module Monitoring = Monitoring
module Node = Node
module Client = Client
module Cluster = Cluster
module Attacks = Attacks
