(* A replicated key-value store on RBFT: the kind of open-loop service
   (ZooKeeper/Boxwood-style) the paper's introduction motivates.

   Drives typed KV operations through the cluster and checks that all
   nodes converge to identical store contents, then survives a faulty
   node going silent mid-run.

   Run with: dune exec examples/kvstore_cluster.exe *)

open Dessim
open Bftapp

let () =
  Printf.printf "== Replicated key-value store over RBFT (f = 1) ==\n\n";
  let params = Rbft.Params.default ~f:1 in
  let stores = Array.init 4 (fun _ -> Kvstore.create ()) in
  let next = ref (-1) in
  let service () =
    incr next;
    Kvstore.service stores.(!next)
  in
  let cluster = Rbft.Cluster.create ~probe:(Bftmetrics.Probe.create ()) ~service ~clients:1 params in
  let client = Rbft.Cluster.client cluster 0 in

  (* The default client sends opaque payloads; for typed operations we
     inject requests through a custom sender. *)
  let rid = ref 0 in
  let send op =
    incr rid;
    let encoded = Kvstore.encode_op op in
    let desc = Pbftcore.Types.desc_of_op ~client:0 ~rid:!rid encoded in
    let req = { Rbft.Messages.desc; sig_valid = true; mac_invalid_for = [] } in
    let msg = Rbft.Messages.Request req in
    let size = Rbft.Messages.request_wire_size req ~n:4 in
    for node = 0 to 3 do
      Bftnet.Network.send (Rbft.Cluster.network cluster)
        ~src:(Bftcrypto.Principal.client 0)
        ~dst:(Bftcrypto.Principal.node node) ~size msg
    done
  in
  ignore client;

  Printf.printf "phase 1: 500 puts and deletes\n";
  for i = 1 to 500 do
    let key = Printf.sprintf "user:%d" (i mod 50) in
    if i mod 7 = 0 then send (Kvstore.Delete key)
    else send (Kvstore.Put (key, Printf.sprintf "v%d" i))
  done;
  Rbft.Cluster.run_for cluster (Time.sec 1);

  Printf.printf "phase 2: node 3 turns Byzantine (silent everywhere)\n";
  Rbft.Attacks.install cluster (Rbft.Attacks.node 3 [ No_propagate; Silent [ 0; 1 ] ]);
  for i = 501 to 1000 do
    send (Kvstore.Put (Printf.sprintf "late:%d" (i mod 30), string_of_int i))
  done;
  Rbft.Cluster.run_for cluster (Time.sec 1);

  Printf.printf "\nexecuted at node 0: %d operations\n"
    (Rbft.Node.executed_count (Rbft.Cluster.node cluster 0));
  Array.iteri
    (fun i store ->
      Printf.printf "node %d store: %d keys, digest %s\n" i (Kvstore.size store)
        (String.sub (Bftcrypto.Sha256.to_hex (Kvstore.digest store)) 0 16))
    stores;
  let reference = Kvstore.digest stores.(0) in
  let agree =
    Kvstore.digest stores.(1) = reference && Kvstore.digest stores.(2) = reference
  in
  Printf.printf "correct nodes agree on store contents: %b\n" agree;
  if not agree then exit 1
