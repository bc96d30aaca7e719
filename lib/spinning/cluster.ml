include Pbftcore.Cluster_core.Make (struct
  type config = Node.config
  type msg = Node.msg
  type t = Node.t
  type client = Client.t

  let n (cfg : config) = (3 * cfg.f) + 1

  (* Spinning uses UDP multicast between clients and replicas. *)
  let transport = Bftnet.Network.Udp
  let create = Node.create

  let create_client engine net (cfg : config) ~id ~payload_size =
    Client.create engine net ~f:cfg.f ~id ~payload_size ()

  let start = Node.start
  let id = Node.id
  let ledger = Node.ledger
  let skips_agreement _ = false
end)
