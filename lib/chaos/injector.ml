open Dessim
open Bftcrypto

type hooks = {
  engine : Engine.t;
  probe : Bftmetrics.Probe.t;
  n : int;
  set_fault_hook : Bftnet.Network.fault_hook option -> unit;
  set_cpu_factor : node:int -> float -> unit;
  set_clock_factor : node:int -> float -> unit;
}

type active = {
  crashed : bool array;
  mutable partitions : int list list;  (* active isolation groups *)
  mutable links : (int option * int option * Fault.link_rates) list;
}

type t = {
  hooks : hooks;
  rng : Rng.t;
  state : active;
  mutable timers : Engine.timer list;
  mutable healed : bool;
}

let log t message =
  if Bftmetrics.Probe.audit t.hooks.probe then
    Bftmetrics.Probe.emit_at t.hooks.probe (Engine.now t.hooks.engine) ~node:(-1)
      ~instance:(-1)
      (Log { level = "info"; component = "chaos"; message })

(* A node id for fault matching: clients map to -1, which no node
   filter matches but the [None] wildcard does. *)
let node_id = function Principal.Node i -> i | Principal.Client _ -> -1

let separated groups a b =
  (* a or b being -1 (a client) never crosses a partition: only the
     replica mesh is cut. *)
  a >= 0 && b >= 0
  && List.exists
       (fun group ->
         let ina = List.mem a group and inb = List.mem b group in
         ina <> inb)
       groups

let matches filter id = match filter with None -> true | Some i -> i = id

(* The single network hook: consult the active fault state for every
   message. Draw order from the rng stream is fixed (drop, duplicate,
   corrupt, jitter per matching link rule) to keep replays exact. *)
let verdict t ~src ~dst ~size:_ =
  let s = node_id src and d = node_id dst in
  let crashed i = i >= 0 && i < Array.length t.state.crashed && t.state.crashed.(i) in
  if crashed s || crashed d then
    { Bftnet.Network.pass_verdict with Bftnet.Network.fv_drop = true }
  else if separated t.state.partitions s d then
    { Bftnet.Network.pass_verdict with Bftnet.Network.fv_drop = true }
  else begin
    let drop = ref false in
    let dups = ref 0 in
    let corrupt = ref false in
    let extra = ref Time.zero in
    List.iter
      (fun (fsrc, fdst, (r : Fault.link_rates)) ->
        if matches fsrc s && matches fdst d then begin
          if r.Fault.drop > 0.0 && Rng.float t.rng 1.0 < r.Fault.drop then
            drop := true;
          if r.Fault.duplicate > 0.0 && Rng.float t.rng 1.0 < r.Fault.duplicate then
            incr dups;
          if r.Fault.corrupt > 0.0 && Rng.float t.rng 1.0 < r.Fault.corrupt then
            corrupt := true;
          extra := Time.add !extra r.Fault.delay;
          if r.Fault.jitter > Time.zero then
            extra := Time.add !extra (Time.ns (Rng.int t.rng (Stdlib.max 1 r.Fault.jitter)))
        end)
      t.state.links;
    if !drop then { Bftnet.Network.pass_verdict with Bftnet.Network.fv_drop = true }
    else
      {
        Bftnet.Network.fv_drop = false;
        fv_duplicates = !dups;
        fv_extra_delay = !extra;
        fv_corrupt = !corrupt;
      }
  end

let activate t (f : Fault.t) =
  log t (Printf.sprintf "activate %s" (Fault.describe f));
  match f.Fault.kind with
  | Fault.Crash { node } ->
    if node >= 0 && node < t.hooks.n then t.state.crashed.(node) <- true
  | Fault.Partition { group } -> t.state.partitions <- group :: t.state.partitions
  | Fault.Link_chaos { src; dst; rates } ->
    t.state.links <- t.state.links @ [ (src, dst, rates) ]
  | Fault.Clock_skew { node; factor } ->
    if node >= 0 && node < t.hooks.n then t.hooks.set_clock_factor ~node factor
  | Fault.Cpu_skew { node; factor } ->
    if node >= 0 && node < t.hooks.n then t.hooks.set_cpu_factor ~node factor

let deactivate t (f : Fault.t) =
  log t (Printf.sprintf "expire %s" (Fault.describe f));
  match f.Fault.kind with
  | Fault.Crash { node } ->
    if node >= 0 && node < t.hooks.n then t.state.crashed.(node) <- false
  | Fault.Partition { group } ->
    (* Remove one occurrence (identical overlapping groups stack). *)
    let rec remove = function
      | [] -> []
      | g :: rest -> if g = group then rest else g :: remove rest
    in
    t.state.partitions <- remove t.state.partitions
  | Fault.Link_chaos { src; dst; rates } ->
    let rec remove = function
      | [] -> []
      | entry :: rest ->
        if entry = (src, dst, rates) then rest else entry :: remove rest
    in
    t.state.links <- remove t.state.links
  | Fault.Clock_skew { node; factor = _ } ->
    if node >= 0 && node < t.hooks.n then t.hooks.set_clock_factor ~node 1.0
  | Fault.Cpu_skew { node; factor = _ } ->
    if node >= 0 && node < t.hooks.n then t.hooks.set_cpu_factor ~node 1.0

let install hooks ~seed plan =
  let t =
    {
      hooks;
      rng = Rng.create (Int64.logxor seed 0x6368616f73L (* "chaos" *));
      state = { crashed = Array.make hooks.n false; partitions = []; links = [] };
      timers = [];
      healed = false;
    }
  in
  hooks.set_fault_hook (Some (fun ~src ~dst ~size -> verdict t ~src ~dst ~size));
  List.iter
    (fun (f : Fault.t) ->
      t.timers <- Engine.at hooks.engine f.Fault.at (fun () -> activate t f) :: t.timers;
      t.timers <-
        Engine.at hooks.engine f.Fault.until (fun () -> deactivate t f) :: t.timers)
    plan;
  t

let heal t =
  if not t.healed then begin
    t.healed <- true;
    List.iter (Engine.cancel t.hooks.engine) t.timers;
    t.timers <- [];
    Array.fill t.state.crashed 0 (Array.length t.state.crashed) false;
    t.state.partitions <- [];
    t.state.links <- [];
    for node = 0 to t.hooks.n - 1 do
      t.hooks.set_clock_factor ~node 1.0;
      t.hooks.set_cpu_factor ~node 1.0
    done;
    t.hooks.set_fault_hook None;
    log t "healed: all faults cleared"
  end

let crashed t i = i >= 0 && i < Array.length t.state.crashed && t.state.crashed.(i)
