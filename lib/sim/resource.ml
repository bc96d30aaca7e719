let noop () = ()

(* Waiting jobs live in a growable FIFO ring of three parallel arrays:
   job [i] (0 = oldest) is at slot [(head + i) mod capacity]. The job
   in service is not in the ring; its continuation is [current]. *)
type t = {
  engine : Engine.t;
  name : string;
  mutable costs : Time.t array;
  mutable spans : int array;
  mutable ks : (unit -> unit) array;
  mutable head : int;
  mutable len : int;
  mutable current : unit -> unit;
  mutable completion : Engine.timer option;
      (* the one completion event of this resource, re-armed for every
         job: runs [current], then starts the next job. Made on the
         first job, so a resource that never serves one (most client
         NICs of a large population) costs no event. *)
  mutable running : bool;
  mutable busy_until : Time.t;
  mutable busy_total : Time.t;
  mutable jobs : int;
  mutable speed : float;
  mutable queued_cost : Time.t;
      (* running sum of the ring's costs, so [backlog] is O(1) on the
         adaptive batcher's per-flush polling path *)
}

let name t = t.name

let speed t = t.speed
let set_speed t s = t.speed <- (if s <= 0.0 then 1e-6 else s)

(* Scale a nominal cost by the current speed factor; jobs already
   started keep the scaling in force when they were dequeued. *)
let scaled t cost = if t.speed = 1.0 then cost else Time.mul_f cost (1.0 /. t.speed)

(* Only the job in service has a scheduled completion event. This lets
   a running handler [charge] extra time and push back everything
   queued behind it. *)
let rec start t ~cost ~span k =
  t.running <- true;
  t.current <- k;
  let cost = scaled t cost in
  let start = Time.max (Engine.now t.engine) t.busy_until in
  let finish = Time.add start cost in
  t.busy_until <- finish;
  t.busy_total <- Time.add t.busy_total cost;
  t.jobs <- t.jobs + 1;
  (* Only traced jobs carry a span id, so an untraced run pays one
     integer compare here. *)
  if span >= 0 then Engine.on_job_start t.engine span ~start ~finish;
  match t.completion with
  | Some timer -> Engine.rearm t.engine timer finish
  | None ->
    let timer = Engine.timer (fun () -> complete t) in
    t.completion <- Some timer;
    Engine.rearm t.engine timer finish

and start_next t =
  if t.len = 0 then t.running <- false
  else begin
    let slot = t.head in
    let cost = t.costs.(slot) and span = t.spans.(slot) and k = t.ks.(slot) in
    t.ks.(slot) <- noop;
    t.head <- (if slot + 1 = Array.length t.ks then 0 else slot + 1);
    t.len <- t.len - 1;
    t.queued_cost <- Time.max Time.zero (Time.sub t.queued_cost cost);
    start t ~cost ~span k
  end

and complete t =
  let k = t.current in
  t.current <- noop;
  k ();
  start_next t

let create engine ~name =
  {
    engine;
    name;
    costs = [||];
    spans = [||];
    ks = [||];
    head = 0;
    len = 0;
    current = noop;
    completion = None;
    running = false;
    busy_until = Time.zero;
    busy_total = Time.zero;
    jobs = 0;
    speed = 1.0;
    queued_cost = Time.zero;
  }

(* Double the ring (first allocation: 8 slots), unrolling it so the
   oldest job lands in slot 0. *)
let grow t =
  let cap = Array.length t.ks in
  let new_cap = if cap = 0 then 8 else 2 * cap in
  let unroll old fill =
    let a = Array.make new_cap fill in
    for i = 0 to t.len - 1 do
      a.(i) <- old.((t.head + i) mod cap)
    done;
    a
  in
  t.costs <- unroll t.costs Time.zero;
  t.spans <- unroll t.spans (-1);
  t.ks <- unroll t.ks noop;
  t.head <- 0

let submit ?(span = -1) t ~cost k =
  (* An idle resource has an empty ring: the job goes straight into
     service. *)
  if not t.running then start t ~cost ~span k
  else begin
    if t.len = Array.length t.ks then grow t;
    let slot = t.head + t.len in
    let slot = if slot >= Array.length t.ks then slot - Array.length t.ks else slot in
    t.costs.(slot) <- cost;
    t.spans.(slot) <- span;
    t.ks.(slot) <- k;
    t.len <- t.len + 1;
    t.queued_cost <- Time.add t.queued_cost cost
  end

let charge t extra =
  let extra = scaled t (Time.max Time.zero extra) in
  let base = Time.max (Engine.now t.engine) t.busy_until in
  t.busy_until <- Time.add base extra;
  t.busy_total <- Time.add t.busy_total extra

let busy_until t = t.busy_until

let backlog t =
  let now = Engine.now t.engine in
  Time.add (Time.max Time.zero (Time.sub t.busy_until now)) t.queued_cost

(* O(n) reference implementation of [backlog]; the property test pins
   the incremental [queued_cost] sum to this fold over the ring. *)
let backlog_fold t =
  let queued = ref Time.zero in
  for i = 0 to t.len - 1 do
    queued := Time.add !queued t.costs.((t.head + i) mod Array.length t.costs)
  done;
  let now = Engine.now t.engine in
  Time.add (Time.max Time.zero (Time.sub t.busy_until now)) !queued

let depth t = t.len

let busy_total t = t.busy_total
let jobs_served t = t.jobs
