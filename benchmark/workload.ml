(* The benchmark's workloads.

   Every workload runs RBFT with f = 1 (4 nodes, 2 redundantly ordering
   instances) on the default gigabit network (60 us one-way latency, up
   to 20 us jitter, 120 us TCP overhead). Load is open loop: requests go
   out on a Poisson schedule whatever the replies do, so an overloaded
   system sees its queues and retries grow instead of a throttled
   client. Each workload stresses a different layer; the README records
   which end-to-end metric each layer should move on which workload. *)

open Dessim

type load =
  | Open_loop of { clients : int; rate : float }
      (** [clients] clients, each sending at [rate /. clients] req/s *)
  | Population of { registered : int; active : int; rate : float }
      (** {!Bftworkload.Population}: Zipf rates over [active] connected
          clients summing to [rate], 10% churn *)

type t = {
  name : string;
  why : string;
  payload : int;  (** request payload bytes *)
  load : load;
  duration : Time.t;  (** load is offered over [0, duration) *)
  warmup : Time.t;  (** the measurement window is [warmup, duration) *)
  drain : Time.t;  (** quiet time after the load stops *)
  attack : bool;  (** {!Rbft.Attacks.worst_attack_1} *)
  cost : float;
      (** host seconds one plain simulation takes on the reference
          machine (see README), process start and settle included *)
}

let peak size = Bftharness.Calibrate.peak_rate Bftharness.Calibrate.Rbft ~size

let open_loop rate = Open_loop { clients = 20; rate }

let base =
  {
    name = "";
    why = "";
    payload = 8;
    load = open_loop 0.0;
    duration = Time.sec 2;
    warmup = Time.ms 200;
    drain = Time.ms 200;
    attack = false;
    cost = 1.0;
  }

let all =
  [
    { base with
      name = "overload-8B";
      why =
        "8 B requests at the calibrated saturating rate: the headline peak, \
         where admission, backoff and retries do most of the work";
      load =
        open_loop
          (Bftharness.Calibrate.saturating_rate Bftharness.Calibrate.Rbft
             ~size:8);
      (* The backoff tail keeps growing while the overload lasts, at a
         rate that varies from seed to seed; many short runs average it
         far better than a few long ones. *)
      duration = Time.ms 500;
      cost = 2.5 };
    (* From 0.95x of the 4 kB peak up, the first BUSY reply can set off a
       retry storm that leaves requests unserved for seconds after the
       load stops (see README). No seed shed a request at 0.80x or 0.85x;
       0.80x halves the seed-to-seed spread of p99. *)
    { base with
      name = "near-peak-4kB";
      why =
        "4 kB requests at 0.80x the 4 kB peak: per-byte costs (NIC, byte \
         touching, digests) set capacity and queueing is high";
      payload = 4096;
      load = open_loop (0.80 *. peak 4096);
      duration = Time.sec 3;
      cost = 2.2 };
    { base with
      name = "steady-8B";
      why =
        "8 B requests at 0.70x peak: the gate never sheds, so latency is \
         ordering structure (batch-wait, prepare, commit, reply)";
      load = open_loop (0.70 *. peak 8);
      duration = Time.sec 1;
      cost = 2.2 };
    { base with
      name = "worst1-8B";
      why =
        "overload-8B under the paper's worst-attack-1: junk PROPAGATE floods \
         hit NIC closing and broken MACs hit verification";
      load =
        open_loop
          (Bftharness.Calibrate.saturating_rate Bftharness.Calibrate.Rbft
             ~size:8);
      duration = Time.sec 1;
      attack = true;
      cost = 5.7 };
    { base with
      name = "population-20k";
      why =
        "20,000 registered clients, 200 active, 4,000 req/s with churn: \
         per-client state dominates setup time and heap";
      load = Population { registered = 20_000; active = 200; rate = 4_000.0 };
      cost = 1.2 };
  ]

let find name = List.find_opt (fun w -> w.name = name) all

let params w =
  let p = Rbft.Params.default ~f:1 in
  match w.load with
  | Open_loop _ ->
    (* The flow-controlled configuration behind the headline numbers:
       bounded admission with BUSY backpressure, and adaptive batching. *)
    { p with Rbft.Params.admission_budget = 128; adaptive_batching = true }
  | Population _ ->
    (* The capacity knobs the client-population sweep runs with: executed
       requests and idle clients' monitoring state are swept, so memory
       tracks the live population rather than everyone ever seen. *)
    { p with
      Rbft.Params.request_gc_age = Time.ms 300;
      monitoring_idle_prune = Time.ms 500 }

let clients w =
  match w.load with
  | Open_loop { clients; _ } -> clients
  | Population { registered; _ } -> registered

(* Nodes the attack controls; worst-attack-1 takes the last f nodes. *)
let faulty w = if w.attack then [ 3 ] else []

(* Schedule the offered load on a freshly built cluster. *)
let apply w cluster ~seed =
  let engine = Rbft.Cluster.engine cluster in
  let set_rate c r = Rbft.Client.set_rate (Rbft.Cluster.client cluster c) r in
  match w.load with
  | Open_loop { clients; rate } ->
    Bftworkload.Loadshape.apply engine
      (Bftworkload.Loadshape.static ~duration:w.duration ~clients
         ~rate:(rate /. float_of_int clients))
      ~set_rate
  | Population { registered; active; rate } ->
    Bftworkload.Population.apply engine
      (Bftworkload.Population.create ~seed ~active ~churn_fraction:0.1
         ~clients:registered ~aggregate_rate:rate ~duration:w.duration ())
      ~set_rate
