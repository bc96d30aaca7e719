(** Assemble a Spinning deployment. *)

include
  Pbftcore.Cluster_core.S
    with type node = Node.t
     and type client = Client.t
     and type msg = Node.msg

val create :
  probe:Bftmetrics.Probe.t ->
  ?seed:int64 ->
  ?clients:int ->
  ?payload_size:int ->
  ?service:(unit -> Bftapp.Service.t) ->
  Node.config ->
  t
