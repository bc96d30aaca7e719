open Dessim
open Bftcrypto

type transport = Tcp | Udp

let latency = Time.us 60
let bandwidth_bps = 1e9
let tcp_overhead = Time.us 120
let frame_overhead_bytes = 60

type config = { nodes : int; transport : transport; jitter : Time.t }

let default_config ~nodes = { nodes; transport = Tcp; jitter = Time.us 20 }

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

let src_node d = match d.src with Principal.Node i -> i | Principal.Client _ -> -1

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
   NIC queue (the same physical NIC, two directions), in slot [j] of
   [egress] and [ingress] for peer node [j]. Client traffic at a node
   shares a single client-facing NIC, in slot [nodes]; each client
   owns its own NIC.

   Under TCP, arrivals on a connection are FIFO: jitter must not
   reorder messages of one (src, dst) pair. Each port therefore keeps
   the latest arrival instant it has scheduled towards every peer node
   ([last_to_node], [c_last_to_node]), and a client port also the
   latest arrival from every node ([c_last_from_node]).

   A client's port is built on its first send or delivery, not when
   the client registers: most clients of a large population never
   send, and a registered client costs only its handler. Building a
   port draws no randomness, so when it happens changes no run. *)
type node_ports = {
  egress : Resource.t array;
  ingress : Resource.t array;
  mutable closed_until : Time.t Principal.Map.t;
  last_to_node : Time.t array;
}

type client_port = {
  c_egress : Resource.t;
  c_ingress : Resource.t;
  c_last_to_node : Time.t array;
  c_last_from_node : Time.t array;
}

module Probe = Bftmetrics.Probe

type 'a t = {
  engine : Engine.t;
  cfg : config;
  rng : Rng.t;
  node_ports : node_ports array;
  node_handlers : ('a delivery -> unit) array;
  mutable client_handlers : ('a delivery -> unit) array;
      (* indexed by client id, doubles as ids grow; [no_handler] where
         none is registered, in both arrays *)
  client_ports : (int, client_port) Hashtbl.t;
  (* Latest arrival per client-to-client pair: the one pairing with
     no port array (only test fakes send it). *)
  last_client_to_client : (int, Time.t) Hashtbl.t;
  mutable delivered : int;
  mutable dropped : int;
  mutable bytes : int;
  mutable fault_hook : fault_hook option;
  (* Model-checker hook: labels node-bound deliveries (message type +
     identifying fields) for choice-event fingerprints. Only consulted
     while the engine captures choices. *)
  mutable describe : ('a -> string) option;
  probe : Probe.t;
  m : Probe.net_metrics;
}

let chan_of ~src ~dst =
  match (src, dst) with
  | Principal.Node _, Principal.Node _ -> Probe.Node_node
  | Principal.Node _, Principal.Client _ -> Probe.Node_client
  | Principal.Client _, _ -> Probe.Client_node

let no_handler _ = ()

let create ~probe engine cfg =
  let nics i dir =
    Array.init (cfg.nodes + 1) (fun j ->
        let peer = if j = cfg.nodes then "clients" else Printf.sprintf "n%d" j in
        Resource.create engine ~name:(Printf.sprintf "n%d%s%s" i dir peer))
  in
  let make_ports i =
    {
      egress = nics i "->";
      ingress = nics i "<-";
      closed_until = Principal.Map.empty;
      last_to_node = Array.make cfg.nodes Time.zero;
    }
  in
  {
    engine;
    cfg;
    rng = Engine.fresh_rng engine;
    node_ports = Array.init cfg.nodes make_ports;
    node_handlers = Array.make cfg.nodes no_handler;
    client_handlers = [||];
    client_ports = Hashtbl.create 32;
    last_client_to_client = Hashtbl.create 8;
    delivered = 0;
    dropped = 0;
    bytes = 0;
    fault_hook = None;
    describe = None;
    probe;
    m = Probe.net_metrics probe;
  }

let probe t = t.probe

let engine t = t.engine
let config t = t.cfg

let register_node t i handler =
  assert (i >= 0 && i < t.cfg.nodes);
  t.node_handlers.(i) <- handler

let client_port t c =
  match Hashtbl.find t.client_ports c with
  | port -> port
  | exception Not_found ->
    let port =
      {
        c_egress = Resource.create t.engine ~name:(Printf.sprintf "c%d->" c);
        c_ingress = Resource.create t.engine ~name:(Printf.sprintf "c%d<-" c);
        c_last_to_node = Array.make t.cfg.nodes Time.zero;
        c_last_from_node = Array.make t.cfg.nodes Time.zero;
      }
    in
    Hashtbl.add t.client_ports c port;
    port

let register_client t c handler =
  if c < 0 then invalid_arg "Network.register_client: negative client id";
  let len = Array.length t.client_handlers in
  if c >= len then begin
    let grown = Array.make (Stdlib.max (c + 1) (2 * len)) no_handler in
    Array.blit t.client_handlers 0 grown 0 len;
    t.client_handlers <- grown
  end;
  t.client_handlers.(c) <- handler

let client_handler t c =
  if c >= 0 && c < Array.length t.client_handlers then t.client_handlers.(c) else no_handler

let serialization_time ~size =
  let bits = float_of_int ((size + frame_overhead_bytes) * 8) in
  Time.of_sec_f (bits /. bandwidth_bps)

let propagation_delay t =
  let jitter =
    if t.cfg.jitter = Time.zero then Time.zero
    else Time.ns (Rng.int t.rng (Stdlib.max 1 t.cfg.jitter))
  in
  let overhead = match t.cfg.transport with Tcp -> tcp_overhead | Udp -> Time.zero in
  Time.add (Time.add latency jitter) overhead

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
let nic_slot t = function Principal.Node j -> j | Principal.Client _ -> t.cfg.nodes

let egress_of t ~src ~dst =
  match src with
  | Principal.Node i -> t.node_ports.(i).egress.(nic_slot t dst)
  | Principal.Client c -> (client_port t c).c_egress

let ingress_of t ~src ~dst =
  match dst with
  | Principal.Node j -> t.node_ports.(j).ingress.(nic_slot t src)
  | Principal.Client c -> (client_port t c).c_ingress

(* TCP FIFO per connection: the arrival instant of a message is never
   earlier than the previous arrival of the same (src, dst) pair.
   Records and returns it. UDP keeps the jittered instant. *)
let clamp_arrival slots i arrival =
  let arrival = Time.max arrival slots.(i) in
  slots.(i) <- arrival;
  arrival

let fifo_arrival t ~src ~dst arrival =
  match (t.cfg.transport, src, dst) with
  | Udp, _, _ -> arrival
  | Tcp, Principal.Node i, Principal.Node j ->
    clamp_arrival t.node_ports.(i).last_to_node j arrival
  | Tcp, Principal.Node i, Principal.Client c ->
    clamp_arrival (client_port t c).c_last_from_node i arrival
  | Tcp, Principal.Client c, Principal.Node j ->
    clamp_arrival (client_port t c).c_last_to_node j arrival
  | Tcp, Principal.Client a, Principal.Client b ->
    (* Client ids are non-negative and far below 2^31, so one int
       names the pair without allocating a tuple. *)
    let key = (a lsl 31) lor b in
    let arrival =
      match Hashtbl.find t.last_client_to_client key with
      | prev -> Time.max arrival prev
      | exception Not_found -> arrival
    in
    Hashtbl.replace t.last_client_to_client key arrival;
    arrival

(* Every dropped message: counted, metered per channel, and audited
   from the receiver's perspective ([node] is the destination, or -1
   for a client; [src] names the sender whose traffic was dropped). *)
let drop t ~src ~dst ~reason =
  t.dropped <- t.dropped + 1;
  Probe.dropped t.probe t.m (chan_of ~src ~dst) (Engine.now t.engine)
    ~node:(match dst with Principal.Node j -> j | Principal.Client _ -> -1)
    ~src ~show:Principal.to_string ~reason

(* One message on the wire. Its three steps (egress completion,
   arrival, ingress completion) share this record and one continuation,
   which runs the step [next] names. So a message allocates the record,
   the continuation, its arrival event and the delivery it hands over. *)
type 'a msg = {
  net : 'a t;
  m_src : Principal.t;
  m_dst : Principal.t;
  m_size : int;
  m_payload : 'a;
  m_sent_at : Time.t;
  m_ser : Time.t;
  m_corrupt : bool;
  m_extra_delay : Time.t;
  m_span : int;
  m_span_tag : Bftmetrics.Tag.t;
  mutable next : 'a msg -> (unit -> unit) -> unit;
  mutable handler : 'a delivery -> unit;  (* looked up on arrival *)
}

let ingress_done m _ =
  let t = m.net and src = m.m_src and dst = m.m_dst and size = m.m_size in
  t.delivered <- t.delivered + 1;
  t.bytes <- t.bytes + size;
  Probe.delivered t.probe t.m (chan_of ~src ~dst) ~size;
  let now = Engine.now t.engine in
  (* Traced message: the whole wire time — sender serialization +
     propagation + ingress — is one transit span, attributed to the
     receiver. *)
  let span =
    Probe.span t.probe ~parent:m.m_span ~tag:m.m_span_tag
      ~node:(match dst with Principal.Node j -> j | Principal.Client _ -> -1)
      ~instance:(-1) ~t0:m.m_sent_at ~t1:now
  in
  m.handler
    { src; dst; size; payload = m.m_payload; sent_at = m.m_sent_at; delivered_at = now;
      corrupted = m.m_corrupt; span }

let arrive m k =
  let t = m.net and src = m.m_src and dst = m.m_dst in
  let handler =
    match dst with
    | Principal.Node j -> t.node_handlers.(j)
    | Principal.Client c -> client_handler t c
  in
  if handler == no_handler then drop t ~src ~dst ~reason:"no-handler"
  else if
    match dst with
    | Principal.Node j -> nic_closed t ~node:j ~peer:src
    | Principal.Client _ -> false
  then drop t ~src ~dst ~reason:"nic-closed"
  else begin
    m.handler <- handler;
    m.next <- ingress_done;
    Resource.submit (ingress_of t ~src ~dst) ~cost:m.m_ser k
  end

(* The jitter is drawn, and TCP's FIFO clamp applied, as the message
   leaves the sender. Node-bound arrivals are scheduling choices for
   the model checker; everything else (and every arrival when capture
   is off) keeps the ordinary timestamp-ordered path. *)
let egress_done m k =
  let t = m.net in
  let delay = Time.add (propagation_delay t) m.m_extra_delay in
  let now = Engine.now t.engine in
  let arrival = fifo_arrival t ~src:m.m_src ~dst:m.m_dst (Time.add now delay) in
  m.next <- arrive;
  match m.m_dst with
  | Principal.Node j when Engine.choice_capture t.engine ->
    let src = match m.m_src with Principal.Node i -> i | Principal.Client c -> -(c + 1) in
    let label = match t.describe with Some f -> f m.m_payload | None -> "" in
    ignore (Engine.at_choice t.engine arrival ~src ~dst:j ~label k)
  | Principal.Node _ | Principal.Client _ -> ignore (Engine.at t.engine arrival k)

let send_copy t ~src ~dst ~size ~corrupt ~extra_delay ~span ~span_tag payload =
  let m =
    { net = t; m_src = src; m_dst = dst; m_size = size; m_payload = payload;
      m_sent_at = Engine.now t.engine; m_ser = serialization_time ~size;
      m_corrupt = corrupt; m_extra_delay = extra_delay; m_span = span;
      m_span_tag = span_tag; next = egress_done; handler = no_handler }
  in
  let rec k () = m.next m k in
  Resource.submit (egress_of t ~src ~dst) ~cost:m.m_ser k

let send ?(span = -1) ?(span_tag = Bftmetrics.Tag.Net_transit) t ~src ~dst ~size
    payload =
  let v = match t.fault_hook with None -> pass_verdict | Some hook -> hook ~src ~dst ~size in
  if v.fv_drop then drop t ~src ~dst ~reason:"chaos"
  else
    for _ = 0 to v.fv_duplicates do
      send_copy t ~src ~dst ~size ~corrupt:v.fv_corrupt ~extra_delay:v.fv_extra_delay
        ~span ~span_tag payload
    done

let messages_delivered t = t.delivered
let messages_dropped t = t.dropped
let bytes_delivered t = t.bytes
