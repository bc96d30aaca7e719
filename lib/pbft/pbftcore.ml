(** The PBFT-style ordering instance used by RBFT (one per protocol
    instance) and by the Aardvark baseline, plus the client, node shell,
    execution ledger, reply cache and cluster scaffold all four stacks
    share. *)

module Types = Types
module Voteset = Voteset
module Slot = Slot
module Messages = Messages
module Replica = Replica
module Ledger = Ledger
module Idset = Idset
module Replycache = Replycache
module Node_core = Node_core
module Client_core = Client_core
module Cluster_core = Cluster_core
