open Dessim
open Bftcrypto

type transport = Tcp | Udp

type config = {
  nodes : int;
  transport : transport;
  latency : Time.t;
  jitter : Time.t;
  bandwidth_bps : float;
  tcp_overhead : Time.t;
  frame_overhead_bytes : int;
}

let default_config ~nodes =
  {
    nodes;
    transport = Tcp;
    latency = Time.us 60;
    jitter = Time.us 20;
    bandwidth_bps = 1e9;
    tcp_overhead = Time.us 120;
    frame_overhead_bytes = 60;
  }

type 'a delivery = {
  src : Principal.t;
  dst : Principal.t;
  size : int;
  payload : 'a;
  sent_at : Time.t;
  delivered_at : Time.t;
  corrupted : bool;
  span : int;
}

(* Chaos interposition: an installed hook rules on every message at
   send time. The default verdict lets everything through untouched. *)
type fault_verdict = {
  fv_drop : bool;
  fv_duplicates : int;
  fv_extra_delay : Time.t;
  fv_corrupt : bool;
}

let pass_verdict =
  { fv_drop = false; fv_duplicates = 0; fv_extra_delay = Time.zero; fv_corrupt = false }

type fault_hook = src:Principal.t -> dst:Principal.t -> size:int -> fault_verdict

(* Each node owns, per peer node: an egress NIC queue and an ingress
   NIC queue (the same physical NIC, two directions). Client traffic
   at a node shares a single client-facing NIC; each client owns its
   own NIC. *)
type node_ports = {
  egress_to_node : Resource.t array;
  ingress_from_node : Resource.t array;
  client_egress : Resource.t;
  client_ingress : Resource.t;
  mutable closed_until : Time.t Principal.Map.t;
}

type 'a client_port = {
  c_egress : Resource.t;
  c_ingress : Resource.t;
  mutable c_handler : ('a delivery -> unit) option;
}

(* Per-channel metric handles (node-node, node-client, client-node),
   registered once per network; updated behind [Registry.active]. *)
type chan_metrics = {
  m_msgs : Bftmetrics.Registry.Counter.t;
  m_bytes : Bftmetrics.Registry.Counter.t;
  m_drops : Bftmetrics.Registry.Counter.t;
}

type net_metrics = {
  nn : chan_metrics;
  nc : chan_metrics;
  cn : chan_metrics;
}

let register_metrics () =
  let module Registry = Bftmetrics.Registry in
  let reg = Registry.default in
  let chan c =
    {
      m_msgs =
        Registry.counter reg "bft_net_messages_total"
          ~help:"Messages delivered, by channel"
          ~labels:[ ("channel", c) ];
      m_bytes =
        Registry.counter reg "bft_net_bytes_total"
          ~help:"Payload bytes delivered, by channel"
          ~labels:[ ("channel", c) ];
      m_drops =
        Registry.counter reg "bft_net_dropped_total"
          ~help:"Messages dropped (closed NIC, no handler), by channel"
          ~labels:[ ("channel", c) ];
    }
  in
  { nn = chan "node-node"; nc = chan "node-client"; cn = chan "client-node" }

type 'a t = {
  engine : Engine.t;
  cfg : config;
  rng : Rng.t;
  node_ports : node_ports array;
  node_handlers : ('a delivery -> unit) option array;
  clients : (int, 'a client_port) Hashtbl.t;
  (* Under TCP, arrivals on a connection are FIFO: jitter must not
     reorder messages of the same (src, dst) pair. *)
  last_arrival : (Principal.t * Principal.t, Time.t) Hashtbl.t;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable fault_hook : fault_hook option;
  (* Model-checker hook: labels node-bound deliveries (message type +
     identifying fields) for choice-event fingerprints. Only consulted
     while the engine captures choices. *)
  mutable describe : ('a -> string) option;
  m : net_metrics;
}

let chan_of t ~src ~dst =
  match (src, dst) with
  | Principal.Node _, Principal.Node _ -> t.m.nn
  | Principal.Node _, Principal.Client _ -> t.m.nc
  | Principal.Client _, _ -> t.m.cn

let create engine cfg =
  let make_ports i =
    {
      egress_to_node =
        Array.init cfg.nodes (fun j ->
            Resource.create engine ~name:(Printf.sprintf "n%d->n%d" i j));
      ingress_from_node =
        Array.init cfg.nodes (fun j ->
            Resource.create engine ~name:(Printf.sprintf "n%d<-n%d" i j));
      client_egress = Resource.create engine ~name:(Printf.sprintf "n%d->clients" i);
      client_ingress = Resource.create engine ~name:(Printf.sprintf "n%d<-clients" i);
      closed_until = Principal.Map.empty;
    }
  in
  {
    engine;
    cfg;
    rng = Engine.fresh_rng engine;
    node_ports = Array.init cfg.nodes make_ports;
    node_handlers = Array.make cfg.nodes None;
    clients = Hashtbl.create 32;
    last_arrival = Hashtbl.create 256;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    fault_hook = None;
    describe = None;
    m = register_metrics ();
  }

let engine t = t.engine
let config t = t.cfg

let register_node t i handler =
  assert (i >= 0 && i < t.cfg.nodes);
  t.node_handlers.(i) <- Some handler

let client_port t c =
  match Hashtbl.find_opt t.clients c with
  | Some port -> port
  | None ->
    let port =
      {
        c_egress = Resource.create t.engine ~name:(Printf.sprintf "c%d->" c);
        c_ingress = Resource.create t.engine ~name:(Printf.sprintf "c%d<-" c);
        c_handler = None;
      }
    in
    Hashtbl.add t.clients c port;
    port

let register_client t c handler = (client_port t c).c_handler <- Some handler

let serialization_time t ~size =
  let bits = float_of_int ((size + t.cfg.frame_overhead_bytes) * 8) in
  Time.of_sec_f (bits /. t.cfg.bandwidth_bps)

let propagation_delay t =
  let jitter =
    if t.cfg.jitter = Time.zero then Time.zero
    else Time.ns (Rng.int t.rng (Stdlib.max 1 t.cfg.jitter))
  in
  let overhead = match t.cfg.transport with Tcp -> t.cfg.tcp_overhead | Udp -> Time.zero in
  Time.add (Time.add t.cfg.latency jitter) overhead

let nic_closed t ~node ~peer =
  match Principal.Map.find_opt peer t.node_ports.(node).closed_until with
  | None -> false
  | Some until -> Engine.now t.engine < until

(* Overlapping closures extend the window: the NIC stays closed until
   the *latest* expiry requested so far. A second, shorter closure must
   never reopen a NIC early — that would let a flooder reset its own
   punishment by triggering a smaller penalty. *)
let close_nic t ~node ~peer ~for_ =
  let until = Time.add (Engine.now t.engine) for_ in
  let ports = t.node_ports.(node) in
  let until =
    match Principal.Map.find_opt peer ports.closed_until with
    | Some prev -> Time.max prev until
    | None -> until
  in
  ports.closed_until <- Principal.Map.add peer until ports.closed_until

let set_fault_hook t hook = t.fault_hook <- hook
let set_describe t f = t.describe <- f

(* Resolve the egress queue at the sender and the ingress queue at the
   receiver for a (src, dst) pair. *)
let egress_of t ~src ~dst =
  match src with
  | Principal.Node i ->
    (match dst with
     | Principal.Node j -> t.node_ports.(i).egress_to_node.(j)
     | Principal.Client _ -> t.node_ports.(i).client_egress)
  | Principal.Client c -> (client_port t c).c_egress

let deliver_to t ~src ~dst =
  match dst with
  | Principal.Node j ->
    let ingress =
      match src with
      | Principal.Node i -> t.node_ports.(j).ingress_from_node.(i)
      | Principal.Client _ -> t.node_ports.(j).client_ingress
    in
    (match t.node_handlers.(j) with
     | None -> None
     | Some handler -> Some (ingress, handler))
  | Principal.Client c ->
    let port = client_port t c in
    (match port.c_handler with
     | None -> None
     | Some handler -> Some (port.c_ingress, handler))

(* Every dropped message: counted, metered per channel, and audited
   from the receiver's perspective ([node] is the destination, or -1
   for a client; [src] names the sender whose traffic was dropped). *)
let drop t ~src ~dst ~reason =
  t.dropped <- t.dropped + 1;
  if Bftmetrics.Registry.active () then
    Bftmetrics.Registry.Counter.inc (chan_of t ~src ~dst).m_drops;
  if Bftaudit.Bus.active () then
    Bftaudit.Bus.emit
      {
        Bftaudit.Event.time = Engine.now t.engine;
        node = (match dst with Principal.Node j -> j | Principal.Client _ -> -1);
        instance = -1;
        kind = Net_dropped { src = Principal.to_string src; reason };
      }

let send_copy t ~src ~dst ~size ~corrupt ~extra_delay ~span ~span_tag payload =
  let sent_at = Engine.now t.engine in
  let ser = serialization_time t ~size in
  Resource.submit (egress_of t ~src ~dst) ~cost:ser (fun () ->
      let delay = Time.add (propagation_delay t) extra_delay in
      let delay =
        match t.cfg.transport with
        | Udp -> delay
        | Tcp ->
          (* FIFO per connection: never arrive before the previous
             message of the same pair. *)
          let key = (src, dst) in
          let arrival = Time.add (Engine.now t.engine) delay in
          let arrival =
            match Hashtbl.find_opt t.last_arrival key with
            | Some prev when prev > arrival -> prev
            | Some _ | None -> arrival
          in
          Hashtbl.replace t.last_arrival key arrival;
          Time.sub arrival (Engine.now t.engine)
      in
      let deliver () =
        match deliver_to t ~src ~dst with
        | None -> drop t ~src ~dst ~reason:"no-handler"
        | Some (ingress, handler) ->
          let closed =
            match dst with
            | Principal.Node j -> nic_closed t ~node:j ~peer:src
            | Principal.Client _ -> false
          in
          if closed then drop t ~src ~dst ~reason:"nic-closed"
          else
            Resource.submit ingress ~cost:ser (fun () ->
                t.delivered <- t.delivered + 1;
                t.bytes <- t.bytes + size;
                if Bftmetrics.Registry.active () then begin
                  let cm = chan_of t ~src ~dst in
                  Bftmetrics.Registry.Counter.inc cm.m_msgs;
                  Bftmetrics.Registry.Counter.add cm.m_bytes size
                end;
                let now = Engine.now t.engine in
                (* Traced message: the whole wire time — sender
                   serialization + propagation + ingress — is one
                   transit span, attributed to the receiver. *)
                let span' =
                  if span >= 0 && Bftspan.Tracer.active () then
                    Bftspan.Tracer.span ~parent:span ~tag:span_tag
                      ~node:
                        (match dst with
                        | Principal.Node j -> j
                        | Principal.Client _ -> -1)
                      ~instance:(-1) ~t0:sent_at ~t1:now
                  else -1
                in
                handler
                  {
                    src;
                    dst;
                    size;
                    payload;
                    sent_at;
                    delivered_at = now;
                    corrupted = corrupt;
                    span = span';
                  })
      in
      (* Node-bound deliveries are scheduling choices for the model
         checker; everything else (and every delivery when capture is
         off) keeps the ordinary timestamp-ordered path. *)
      (match dst with
       | Principal.Node j when Engine.choice_capture t.engine ->
         let src_id =
           match src with
           | Principal.Node i -> i
           | Principal.Client c -> -(c + 1)
         in
         let label =
           match t.describe with Some f -> f payload | None -> ""
         in
         ignore
           (Engine.at_choice t.engine
              (Time.add (Engine.now t.engine) delay)
              ~src:src_id ~dst:j ~label deliver)
       | Principal.Node _ | Principal.Client _ ->
         ignore (Engine.after t.engine delay deliver)))

let send ?(span = -1) ?(span_tag = Bftspan.Tag.Net_transit) t ~src ~dst ~size
    payload =
  match t.fault_hook with
  | None ->
    send_copy t ~src ~dst ~size ~corrupt:false ~extra_delay:Time.zero ~span
      ~span_tag payload
  | Some hook ->
    let v = hook ~src ~dst ~size in
    if v.fv_drop then drop t ~src ~dst ~reason:"chaos"
    else
      for _ = 0 to v.fv_duplicates do
        send_copy t ~src ~dst ~size ~corrupt:v.fv_corrupt
          ~extra_delay:v.fv_extra_delay ~span ~span_tag payload
      done

let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_delivered t = t.bytes

let node_ingress_backlog t ~node ~peer =
  match peer with
  | Principal.Node i -> Resource.backlog t.node_ports.(node).ingress_from_node.(i)
  | Principal.Client _ -> Resource.backlog t.node_ports.(node).client_ingress
