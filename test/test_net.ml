(* Tests for the wire codec and the simulated cluster network. *)

open Dessim
open Bftcrypto
open Bftnet

(* ------------------------------------------------------------------ *)
(* Wire                                                               *)
(* ------------------------------------------------------------------ *)

let test_wire_ints () =
  let w = Wire.Writer.create () in
  Wire.Writer.u8 w 0xAB;
  Wire.Writer.u16 w 0xBEEF;
  Wire.Writer.u32 w 0xDEADBEEF;
  Wire.Writer.u64 w 0x1122334455667788;
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check int) "u8" 0xAB (Wire.Reader.u8 r);
  Alcotest.(check int) "u16" 0xBEEF (Wire.Reader.u16 r);
  Alcotest.(check int) "u32" 0xDEADBEEF (Wire.Reader.u32 r);
  Alcotest.(check int) "u64" 0x1122334455667788 (Wire.Reader.u64 r);
  Alcotest.(check bool) "at end" true (Wire.Reader.at_end r)

let test_wire_varint_sizes () =
  let encoded v =
    let w = Wire.Writer.create () in
    Wire.Writer.varint w v;
    Wire.Writer.size w
  in
  Alcotest.(check int) "small" 1 (encoded 0);
  Alcotest.(check int) "127" 1 (encoded 127);
  Alcotest.(check int) "128" 2 (encoded 128);
  Alcotest.(check int) "16383" 2 (encoded 16_383);
  Alcotest.(check int) "16384" 3 (encoded 16_384)

let test_wire_string_list () =
  let w = Wire.Writer.create () in
  Wire.Writer.string w "hello";
  Wire.Writer.list w (Wire.Writer.string w) [ "a"; "bc"; "" ];
  let r = Wire.Reader.of_string (Wire.Writer.contents w) in
  Alcotest.(check string) "string" "hello" (Wire.Reader.string r);
  Alcotest.(check (list string)) "list" [ "a"; "bc"; "" ]
    (Wire.Reader.list r Wire.Reader.string);
  Alcotest.(check bool) "at end" true (Wire.Reader.at_end r)

let test_wire_truncated () =
  let r = Wire.Reader.of_string "\x05ab" in
  Alcotest.check_raises "truncated string" Wire.Reader.Truncated (fun () ->
      ignore (Wire.Reader.string r))

let prop_wire_varint_roundtrip =
  QCheck.Test.make ~name:"varint roundtrip" QCheck.(int_bound 1_000_000_000)
    (fun v ->
      let w = Wire.Writer.create () in
      Wire.Writer.varint w v;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.varint r = v && Wire.Reader.at_end r)

let prop_wire_string_roundtrip =
  QCheck.Test.make ~name:"string list roundtrip" QCheck.(small_list string)
    (fun xs ->
      let w = Wire.Writer.create () in
      Wire.Writer.list w (Wire.Writer.string w) xs;
      let r = Wire.Reader.of_string (Wire.Writer.contents w) in
      Wire.Reader.list r Wire.Reader.string = xs && Wire.Reader.at_end r)

(* ------------------------------------------------------------------ *)
(* Network                                                            *)
(* ------------------------------------------------------------------ *)

let make_net ?(transport = Network.Tcp) ?(jitter = Time.zero) ?(nodes = 4) engine =
  let p = Bftmetrics.Probe.create () in
  let cfg = { (Network.default_config ~nodes) with transport; jitter } in
  Network.create ~probe:p engine cfg

let test_net_basic_delivery () =
  let e = Engine.create () in
  let net = make_net e in
  let received = ref [] in
  Network.register_node net 1 (fun d -> received := d :: !received);
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:100 "hi";
  Engine.run e;
  match !received with
  | [ d ] ->
    Alcotest.(check string) "payload" "hi" d.Network.payload;
    Alcotest.(check bool) "delivered after sending" true
      (d.Network.delivered_at > d.Network.sent_at);
    Alcotest.(check int) "stats" 1 (Network.messages_delivered net)
  | _ -> Alcotest.fail "expected exactly one delivery"

let test_net_latency_components () =
  (* TCP adds tcp_overhead; UDP doesn't. With zero jitter the gap is
     exactly the configured overhead. *)
  let one_way transport =
    let e = Engine.create () in
    let net = make_net ~transport e in
    let arrival = ref Time.zero in
    Network.register_node net 1 (fun _ -> arrival := Engine.now e);
    Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:8 "m";
    Engine.run e;
    !arrival
  in
  let tcp = one_way Network.Tcp and udp = one_way Network.Udp in
  Alcotest.(check int) "tcp = udp + overhead" (Time.us 120) (Time.sub tcp udp)

let test_net_fifo_per_link () =
  (* TCP provides a FIFO channel per connection: even with jitter,
     messages of one (src, dst) pair are delivered in send order. *)
  let e = Engine.create () in
  let net = make_net ~transport:Network.Tcp ~jitter:(Time.us 200) e in
  let order = ref [] in
  Network.register_node net 1 (fun d -> order := d.Network.payload :: !order);
  for i = 1 to 50 do
    Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:10 i
  done;
  Engine.run e;
  Alcotest.(check (list int)) "TCP preserves send order"
    (List.init 50 (fun i -> i + 1))
    (List.rev !order)

let test_net_fifo_all_pairings () =
  let p = Bftmetrics.Probe.create () in
  (* The FIFO clamp must hold for every kind of connection, at the
     default 20 us jitter (far above an 8 B message's serialization
     gap, so unclamped arrivals would reorder): node -> node,
     node -> client, client -> node and client -> client. The last has
     no per-node port slot to keep its clock in, so it is the one a
     naive per-node array breaks. *)
  let e = Engine.create () in
  let net = Network.create ~probe:p e (Network.default_config ~nodes:4) in
  let got = Hashtbl.create 4 in
  let record d =
    let pair, i = d.Network.payload in
    Hashtbl.replace got pair (i :: Option.value ~default:[] (Hashtbl.find_opt got pair))
  in
  Network.register_node net 1 record;
  Network.register_client net 6 record;
  let pairings =
    [ ("node->node", Principal.node 0, Principal.node 1);
      ("node->client", Principal.node 0, Principal.client 6);
      ("client->node", Principal.client 5, Principal.node 1);
      ("client->client", Principal.client 5, Principal.client 6) ]
  in
  let n = 200 in
  for i = 1 to n do
    List.iter
      (fun (pair, src, dst) -> Network.send net ~src ~dst ~size:8 (pair, i))
      pairings
  done;
  Engine.run e;
  List.iter
    (fun (pair, _, _) ->
      Alcotest.(check (list int))
        (pair ^ " arrives in send order")
        (List.init n (fun i -> i + 1))
        (List.rev (Option.value ~default:[] (Hashtbl.find_opt got pair))))
    pairings

let test_net_udp_can_reorder () =
  (* UDP keeps the raw jittered delays: with jitter far above the
     serialization gap, some inversion must appear. *)
  let e = Engine.create () in
  let net = make_net ~transport:Network.Udp ~jitter:(Time.us 200) e in
  let order = ref [] in
  Network.register_node net 1 (fun d -> order := d.Network.payload :: !order);
  for i = 1 to 50 do
    Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:10 i
  done;
  Engine.run e;
  let arrived = List.rev !order in
  Alcotest.(check int) "all delivered" 50 (List.length arrived);
  Alcotest.(check bool) "some reordering under heavy jitter" true
    (arrived <> List.init 50 (fun i -> i + 1))

let test_net_tcp_fifo_independent_pairs () =
  (* The FIFO clamp is per connection: a slow pair must not delay an
     unrelated pair. *)
  let e = Engine.create () in
  let net = make_net ~transport:Network.Tcp ~jitter:Time.zero e in
  let t02 = ref Time.zero in
  Network.register_node net 1 (fun _ -> ());
  Network.register_node net 2 (fun _ -> t02 := Engine.now e);
  (* A huge message 0 -> 1 keeps that connection busy... *)
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:5_000_000 "big";
  (* ...but 0 -> 2 flows immediately (separate NIC, separate pair). *)
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 2) ~size:8 "small";
  Engine.run e;
  Alcotest.(check bool) "unrelated pair unaffected" true (!t02 < Time.ms 1)

let test_net_bandwidth_serialization () =
  (* Two 1 MB messages over a 1 Gbps NIC serialize back-to-back: the
     second arrives ~8 ms after the first. *)
  let e = Engine.create () in
  let net = make_net ~jitter:Time.zero e in
  let arrivals = ref [] in
  Network.register_node net 1 (fun _ -> arrivals := Engine.now e :: !arrivals);
  let mb = 1_000_000 in
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:mb "a";
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:mb "b";
  Engine.run e;
  match List.rev !arrivals with
  | [ t1; t2 ] ->
    let gap = Time.sub t2 t1 in
    Alcotest.(check bool)
      (Printf.sprintf "gap %s close to 8ms" (Time.to_string gap))
      true
      (gap > Time.ms 7 && gap < Time.ms 10)
  | _ -> Alcotest.fail "expected two deliveries"

let test_net_separate_nics_isolate_peers () =
  (* Flooding from node 2 must not delay traffic from node 0: they use
     different NICs at the receiver (the paper's NIC separation). *)
  let e = Engine.create () in
  let net = make_net ~jitter:Time.zero e in
  let arrival = ref Time.zero in
  Network.register_node net 1 (fun d ->
      if Principal.equal d.Network.src (Principal.node 0) then arrival := Engine.now e);
  (* 100 x 1MB flood messages from node 2. *)
  for _ = 1 to 100 do
    Network.send net ~src:(Principal.node 2) ~dst:(Principal.node 1) ~size:1_000_000 "flood"
  done;
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:8 "legit";
  Engine.run e;
  Alcotest.(check bool) "legit traffic unaffected" true (!arrival < Time.ms 1)

let test_net_flood_delays_same_peer () =
  (* The same flood does delay messages that share the flooded NIC. *)
  let e = Engine.create () in
  let net = make_net ~jitter:Time.zero e in
  let arrival = ref Time.zero in
  let seen = ref 0 in
  Network.register_node net 1 (fun d ->
      if d.Network.payload = "legit" then arrival := Engine.now e else incr seen);
  for _ = 1 to 100 do
    Network.send net ~src:(Principal.node 2) ~dst:(Principal.node 1) ~size:1_000_000 "flood"
  done;
  Network.send net ~src:(Principal.node 2) ~dst:(Principal.node 1) ~size:8 "legit";
  Engine.run e;
  Alcotest.(check bool) "delayed behind flood" true (!arrival > Time.ms 100)

let test_net_close_nic_drops () =
  let e = Engine.create () in
  let net = make_net ~jitter:Time.zero e in
  let received = ref 0 in
  Network.register_node net 1 (fun _ -> incr received);
  Network.close_nic net ~node:1 ~peer:(Principal.node 2) ~for_:(Time.ms 10);
  Alcotest.(check bool) "closed" true
    (Network.nic_closed net ~node:1 ~peer:(Principal.node 2));
  Network.send net ~src:(Principal.node 2) ~dst:(Principal.node 1) ~size:8 "dropped";
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:8 "kept";
  Engine.run e;
  Alcotest.(check int) "only open NIC delivers" 1 !received;
  Alcotest.(check int) "drop counted" 1 (Network.messages_dropped net);
  (* After the window the NIC reopens. *)
  Engine.run ~until:(Time.ms 20) e;
  Alcotest.(check bool) "reopened" false
    (Network.nic_closed net ~node:1 ~peer:(Principal.node 2));
  Network.send net ~src:(Principal.node 2) ~dst:(Principal.node 1) ~size:8 "late";
  Engine.run e;
  Alcotest.(check int) "delivers after reopen" 2 !received

(* close_nic re-open semantics: the NIC is closed strictly before the
   expiry instant and open exactly at it. *)
let prop_close_nic_reopens_at_expiry =
  QCheck.Test.make ~name:"close_nic reopens exactly at expiry"
    QCheck.(int_range 2 5_000_000)
    (fun d ->
      let e = Engine.create () in
      let net = make_net ~jitter:Time.zero e in
      let peer = Principal.node 2 in
      Network.close_nic net ~node:1 ~peer ~for_:(Time.ns d);
      let closed_before = ref false and open_at = ref false in
      ignore
        (Engine.at e (Time.ns (d - 1)) (fun () ->
             closed_before := Network.nic_closed net ~node:1 ~peer));
      ignore
        (Engine.at e (Time.ns d) (fun () ->
             open_at := not (Network.nic_closed net ~node:1 ~peer)));
      Engine.run e;
      !closed_before && !open_at)

(* Overlapping closures extend to the latest expiry; a shorter second
   closure never truncates the first. *)
let prop_close_nic_overlap_extends =
  QCheck.Test.make ~name:"overlapping close_nic extends, never truncates"
    QCheck.(triple (int_range 2 1_000_000) (int_range 1 1_000_000) (int_range 1 1_000_000))
    (fun (d1, a, d2) ->
      let a = Stdlib.min a (d1 - 1) in
      let e = Engine.create () in
      let net = make_net ~jitter:Time.zero e in
      let peer = Principal.node 2 in
      Network.close_nic net ~node:1 ~peer ~for_:(Time.ns d1);
      (* Second closure issued at [a], while the first is still live. *)
      ignore
        (Engine.at e (Time.ns a) (fun () ->
             Network.close_nic net ~node:1 ~peer ~for_:(Time.ns d2)));
      let expiry = Stdlib.max d1 (a + d2) in
      let closed_before = ref false and open_at = ref false in
      ignore
        (Engine.at e (Time.ns (expiry - 1)) (fun () ->
             closed_before := Network.nic_closed net ~node:1 ~peer));
      ignore
        (Engine.at e (Time.ns expiry) (fun () ->
             open_at := not (Network.nic_closed net ~node:1 ~peer)));
      Engine.run e;
      !closed_before && !open_at)

let test_net_clients () =
  let e = Engine.create () in
  let net = make_net e in
  let node_got = ref None and client_got = ref None in
  Network.register_node net 0 (fun d -> node_got := Some d.Network.payload);
  Network.register_client net 7 (fun d -> client_got := Some d.Network.payload);
  Network.send net ~src:(Principal.client 7) ~dst:(Principal.node 0) ~size:10 "request";
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.client 7) ~size:10 "reply";
  Engine.run e;
  Alcotest.(check (option string)) "node received" (Some "request") !node_got;
  Alcotest.(check (option string)) "client received" (Some "reply") !client_got

let test_net_unregistered_dropped () =
  let e = Engine.create () in
  let net = make_net e in
  Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 3) ~size:8 "void";
  Engine.run e;
  Alcotest.(check int) "dropped" 1 (Network.messages_dropped net);
  Alcotest.(check int) "none delivered" 0 (Network.messages_delivered net)

(* One node-to-node message, from [send] to its handler, allocates
   its in-flight record (13 fields), the one continuation its three
   steps share (a closure over the record), its arrival event and the
   delivery handed over: (1 + 13) + (1 + 3) + (1 + 2) + (1 + 8) = 30
   words, whatever its jitter. A closure per step, each capturing the
   message context, costs more. *)
let test_net_message_words () =
  let e = Engine.create () in
  let net = make_net ~jitter:(Time.us 20) e in
  let got = ref 0 in
  Network.register_node net 1 (fun d -> got := !got + d.Network.size);
  let send () =
    Network.send net ~src:(Principal.node 0) ~dst:(Principal.node 1) ~size:8 "m";
    Engine.run e
  in
  (* The first message builds each NIC's completion event and grows
     the engine's heap. *)
  send ();
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  send ();
  let w2 = Gc.minor_words () in
  Alcotest.(check int) "delivered" 16 !got;
  Alcotest.(check (float 0.0)) "minor words of one message" 30.0 (w2 -. w1 -. (w1 -. w0))

(* Client handlers sit in an array indexed by client id: a message to
   an id with no handler, below, past or outside the array, is dropped,
   registering an id again replaces its handler, and a negative id is
   rejected. *)
let test_net_client_handler_ids () =
  let e = Engine.create () in
  let net = make_net e in
  let got = ref [] in
  Network.register_client net 7 (fun _ -> got := "first" :: !got);
  Network.register_client net 7 (fun d -> got := d.Network.payload :: !got);
  Alcotest.check_raises "negative id"
    (Invalid_argument "Network.register_client: negative client id") (fun () ->
      Network.register_client net (-1) ignore);
  List.iter
    (fun c -> Network.send net ~src:(Principal.node 0) ~dst:(Principal.client c) ~size:8 "to-c")
    [ 3; 7; 1_000; -2 ];
  Engine.run e;
  Alcotest.(check (list string)) "only the registered id, by its latest handler" [ "to-c" ] !got;
  Alcotest.(check int) "three no-handler drops" 3 (Network.messages_dropped net);
  Alcotest.(check int) "one delivered" 1 (Network.messages_delivered net)

let test_net_client_nic_shared () =
  (* All clients share one ingress NIC at the node: heavy client
     traffic queues behind itself. *)
  let e = Engine.create () in
  let net = make_net ~jitter:Time.zero e in
  let last = ref Time.zero in
  Network.register_node net 0 (fun _ -> last := Engine.now e);
  for c = 0 to 9 do
    Network.send net ~src:(Principal.client c) ~dst:(Principal.node 0) ~size:1_000_000 "big"
  done;
  Engine.run e;
  (* 10 MB over a shared 1 Gbps ingress: at least 80 ms to drain. *)
  Alcotest.(check bool) "shared ingress is serialized" true (!last > Time.ms 80)

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "net.wire",
      [
        Alcotest.test_case "fixed-width ints" `Quick test_wire_ints;
        Alcotest.test_case "varint sizes" `Quick test_wire_varint_sizes;
        Alcotest.test_case "strings and lists" `Quick test_wire_string_list;
        Alcotest.test_case "truncation" `Quick test_wire_truncated;
      ]
      @ qsuite [ prop_wire_varint_roundtrip; prop_wire_string_roundtrip ] );
    ( "net.network",
      [
        Alcotest.test_case "basic delivery" `Quick test_net_basic_delivery;
        Alcotest.test_case "tcp vs udp latency" `Quick test_net_latency_components;
        Alcotest.test_case "TCP FIFO per connection" `Quick test_net_fifo_per_link;
        Alcotest.test_case "UDP may reorder" `Quick test_net_udp_can_reorder;
        Alcotest.test_case "FIFO clamp is per pair" `Quick test_net_tcp_fifo_independent_pairs;
        Alcotest.test_case "FIFO holds for all four pairings" `Quick
          test_net_fifo_all_pairings;
        Alcotest.test_case "bandwidth serialization" `Quick test_net_bandwidth_serialization;
        Alcotest.test_case "NIC separation isolates peers" `Quick
          test_net_separate_nics_isolate_peers;
        Alcotest.test_case "flood delays its own NIC" `Quick test_net_flood_delays_same_peer;
        Alcotest.test_case "close NIC drops flooder" `Quick test_net_close_nic_drops;
        Alcotest.test_case "client endpoints" `Quick test_net_clients;
        Alcotest.test_case "unregistered dropped" `Quick test_net_unregistered_dropped;
        Alcotest.test_case "one message allocates 30 words" `Quick test_net_message_words;
        Alcotest.test_case "client handlers by id" `Quick test_net_client_handler_ids;
        Alcotest.test_case "client NIC is shared" `Quick test_net_client_nic_shared;
      ]
      @ qsuite [ prop_close_nic_reopens_at_expiry; prop_close_nic_overlap_extends ] );
  ]
