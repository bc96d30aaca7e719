open Dessim

type grammar = {
  protocols : Flavour.t array;
  f : int;
  duration : Time.t;
  drain : Time.t;
  clients : int;
  rate : float;
  payload : int;
  max_faults : int;
}

let default_grammar =
  {
    protocols = Array.of_list Flavour.all;
    f = 1;
    duration = Time.sec 1;
    drain = Time.of_sec_f 1.5;
    clients = 2;
    rate = 100.0;
    payload = 8;
    max_faults = 3;
  }

(* What each protocol flavour can survive within the sweep's liveness
   bound; see the .mli header for the reasoning. *)
type caps = { loss : bool; isolation : bool }

let caps_of = function
  | Flavour.Prime -> { loss = false; isolation = false }
  (* Concurrent ordering survives isolation of a partition owner: the
     stall-driven instance change re-homes its clients and the degrade
     path keeps the merge advancing, all well inside the drain bound. *)
  | Flavour.Rbft | Flavour.Rbft_udp | Flavour.Rbft_concurrent
  | Flavour.Aardvark | Flavour.Spinning ->
    { loss = true; isolation = true }

(* A fault window inside the chaos phase: starts within the first half
   and always expires before the phase ends, leaving the tail of the
   phase plus the drain for recovery. *)
let window g rng =
  let dur = (g.duration : Time.t :> int) in
  let at = Time.ns (dur / 20 + Rng.int rng (dur / 2)) in
  let len = Time.ns (dur / 10 + Rng.int rng (3 * dur / 10)) in
  let until = Time.min (Time.add at len) (Time.mul_f g.duration 0.9) in
  (at, until)

(* Every impairing fault in a scenario targets the same victim node,
   chosen once per scenario. Two different impaired nodes can exceed f
   simultaneous failures (e.g. a partition of one node overlapping
   message loss at another) and stall quorum forever, because the sim
   has no retransmission. The victim is never node 0: it is the
   initial primary of every protocol instance, and a request the
   primary permanently misses would stall without any node being at
   fault. *)
let pick_victim g rng = 1 + Rng.int rng ((3 * g.f) + 1 - 1)

let sample_kind g caps used_isolation ~victim rng =
  let lossy = caps.loss in
  let isolation = caps.isolation && not !used_isolation in
  let choices = ref [] in
  let add c = choices := c :: !choices in
  if isolation then begin
    add `Crash;
    add `Partition
  end;
  if lossy then add `Lossy_link;
  add `Benign_link;
  add `Clock_skew;
  add `Cpu_skew;
  match Rng.pick rng (Array.of_list !choices) with
  | `Crash ->
    used_isolation := true;
    Fault.Crash { node = victim }
  | `Partition ->
    used_isolation := true;
    (* A minority group of f nodes containing the victim, never node 0. *)
    let others =
      Array.init ((3 * g.f) + 1 - 1) (fun i -> i + 1)
      |> Array.to_list
      |> List.filter (fun i -> i <> victim)
      |> Array.of_list
    in
    Rng.shuffle rng others;
    Fault.Partition
      { group = victim :: Array.to_list (Array.sub others 0 (g.f - 1)) }
  | `Lossy_link ->
    (* Confine loss to deliveries at the victim; low rates keep
       quorum-loss probability negligible within the window. *)
    let dst = Some victim in
    Fault.Link_chaos
      {
        src = None;
        dst;
        rates =
          {
            Fault.drop = Rng.float rng 0.02;
            duplicate = Rng.float rng 0.05;
            corrupt = Rng.float rng 0.02;
            delay = Time.us (Rng.int rng 500);
            jitter = Time.us (Rng.int rng 300);
          };
      }
  | `Benign_link ->
    (* Delay and duplication anywhere, including client links. *)
    let endpoint () = if Rng.bool rng then None else Some (Rng.int rng ((3 * g.f) + 1)) in
    Fault.Link_chaos
      {
        src = endpoint ();
        dst = endpoint ();
        rates =
          {
            Fault.drop = 0.0;
            duplicate = Rng.float rng 0.10;
            corrupt = 0.0;
            delay = Time.us (Rng.int rng 1_000);
            jitter = Time.us (Rng.int rng 500);
          };
      }
  | `Clock_skew ->
    Fault.Clock_skew
      { node = Rng.int rng ((3 * g.f) + 1); factor = Rng.uniform_range rng 0.8 1.3 }
  | `Cpu_skew ->
    Fault.Cpu_skew
      { node = Rng.int rng ((3 * g.f) + 1); factor = Rng.uniform_range rng 0.7 1.2 }

let sample g rng ~index =
  let protocol = Rng.pick rng g.protocols in
  let caps = caps_of protocol in
  let nfaults = 1 + Rng.int rng g.max_faults in
  let used_isolation = ref false in
  let victim = pick_victim g rng in
  let faults =
    List.init nfaults (fun _ ->
        let at, until = window g rng in
        { Fault.at; until; kind = sample_kind g caps used_isolation ~victim rng })
  in
  {
    Scenario.name = Printf.sprintf "explore-%04d" index;
    protocol;
    f = g.f;
    seed = Rng.int64 rng;
    duration = g.duration;
    drain = g.drain;
    workload = { Scenario.clients = g.clients; rate = g.rate; payload = g.payload };
    faults;
    lambda = Time.zero;
    mutation = None;
  }

type sweep = { total : int; passed : int; failures : Runner.result list }

let sweep ?(grammar = default_grammar) ?(progress = fun _ -> ()) ?bundle_dir
    ~seed ~count () =
  let rng = Rng.create seed in
  let failures = ref [] in
  let passed = ref 0 in
  for index = 0 to count - 1 do
    let scenario = sample grammar rng ~index in
    (* Each scenario dumps under its own subdirectory so a sweep's
       bundles never collide. *)
    let doctor_dir =
      Option.map
        (fun d -> Filename.concat d scenario.Scenario.name)
        bundle_dir
    in
    let result = Runner.run ?doctor_dir scenario in
    if Runner.ok result then incr passed else failures := result :: !failures;
    progress result
  done;
  { total = count; passed = !passed; failures = List.rev !failures }
