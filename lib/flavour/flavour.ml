type t = Rbft | Rbft_udp | Rbft_concurrent | Aardvark | Spinning | Prime

let all = [ Rbft; Rbft_udp; Rbft_concurrent; Aardvark; Spinning; Prime ]

let name = function
  | Rbft -> "RBFT"
  | Rbft_udp -> "RBFT/UDP"
  | Rbft_concurrent -> "RBFT/concurrent"
  | Aardvark -> "Aardvark"
  | Spinning -> "Spinning"
  | Prime -> "Prime"

let slug = function
  | Rbft -> "rbft"
  | Rbft_udp -> "rbft-udp"
  | Rbft_concurrent -> "rbft-concurrent"
  | Aardvark -> "aardvark"
  | Spinning -> "spinning"
  | Prime -> "prime"

let of_slug s = List.find_opt (fun t -> String.equal (slug t) s) all

let rbft_cluster ~probe ?seed ?(tweak = Fun.id) ?clients ?payload_size ~f t =
  let transport, ordering =
    match t with
    | Rbft -> (Bftnet.Network.Tcp, Rbft.Params.Redundant)
    | Rbft_udp -> (Bftnet.Network.Udp, Rbft.Params.Redundant)
    | Rbft_concurrent -> (Bftnet.Network.Tcp, Rbft.Params.Concurrent)
    | Aardvark | Spinning | Prime -> invalid_arg ("Flavour.rbft_cluster: " ^ name t)
  in
  Rbft.Cluster.create ~probe ?seed ~transport ?clients ?payload_size
    (tweak { (Rbft.Params.default ~f) with Rbft.Params.ordering })
