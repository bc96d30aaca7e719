(** Assemble a Prime deployment. *)

include
  Pbftcore.Cluster_core.S
    with type node = Node.t
     and type client = Client.t
     and type msg = Node.msg

val create :
  ?seed:int64 ->
  ?clients:int ->
  ?payload_size:int ->
  ?service:(unit -> Bftapp.Service.t) ->
  Node.config ->
  t
