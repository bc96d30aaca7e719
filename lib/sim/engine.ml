(* An event is [Idle] (fired, cancelled, or made but never scheduled),
   [Queued] in the heap, [Parked] for the model checker, or [Dead]:
   cancelled while queued and still in the heap until it is popped or
   swept. *)
type state = Idle | Queued | Parked | Dead

type event = { action : unit -> unit; mutable state : state }

type choice = {
  id : int;  (* creation order; unique, monotonically increasing *)
  key : Time.t;  (* nominal arrival instant under timestamp order *)
  src : int;
  dst : int;
  label : string;
}

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  queue : event Heap.t;
  root_rng : Rng.t;
  mutable stopped : bool;
  mutable processed : int;
  mutable dead : int;  (* [Dead] events in the heap *)
  (* Model-checker seam: while [capture] is set, events scheduled
     through [at_choice] are parked here instead of entering the heap,
     and an external scheduler decides their firing order. *)
  mutable capture : bool;
  mutable choice_seq : int;
  parked : (int, choice * event) Hashtbl.t;
  on_job_start : int -> start:Time.t -> finish:Time.t -> unit;
}

type timer = event

let no_job_hook _ ~start:_ ~finish:_ = ()

let create ?(seed = 1L) ?(on_job_start = no_job_hook) () =
  {
    clock = Time.zero;
    seq = 0;
    queue = Heap.create ();
    root_rng = Rng.create seed;
    stopped = false;
    processed = 0;
    dead = 0;
    capture = false;
    choice_seq = 0;
    parked = Hashtbl.create 64;
    on_job_start;
  }

let on_job_start t = t.on_job_start

let now t = t.clock
let rng t = t.root_rng
let fresh_rng t = Rng.split t.root_rng

let enqueue t instant event =
  t.seq <- t.seq + 1;
  event.state <- Queued;
  Heap.push t.queue ~key:(Time.max instant t.clock) ~seq:t.seq event

let at t instant action =
  let event = { action; state = Idle } in
  enqueue t instant event;
  event

let after t delay action = at t (Time.add t.clock (Time.max Time.zero delay)) action

(* Ticks land on the absolute grid [epoch + k*period], never relative
   to the previous callback, so a delayed callback cannot shift the
   later ones. The next tick is armed after [f] returns. *)
let every t period f =
  let epoch = t.clock and k = ref 0 and stopped = ref false in
  let rec arm () =
    incr k;
    ignore
      (at t (Time.add epoch (Time.ns (!k * period))) (fun () ->
           if not !stopped then begin
             f ();
             arm ()
           end))
  in
  arm ();
  fun () -> stopped := true

let timer action = { action; state = Idle }

let rearm t event instant =
  if event.state <> Idle then invalid_arg "Engine.rearm: timer is scheduled";
  enqueue t instant event

(* Drop the dead events once they outnumber the live ones. Each sweep
   removes at least half of the heap, every entry of which was
   cancelled once, so sweeping costs O(1) amortised per cancel. *)
let sweep t =
  Heap.sweep t.queue ~keep:(fun event ->
      match event.state with
      | Dead ->
        event.state <- Idle;
        false
      | Idle | Queued | Parked -> true);
  t.dead <- 0

let cancel t event =
  match event.state with
  | Queued ->
    event.state <- Dead;
    t.dead <- t.dead + 1;
    if 2 * t.dead > Heap.size t.queue then sweep t
  | Parked -> event.state <- Idle
  | Idle | Dead -> ()

let pending event = event.state = Queued || event.state = Parked

(* ------------------------------------------------------------------ *)
(* Choice events (the model-checker scheduler seam)                    *)
(* ------------------------------------------------------------------ *)

let set_choice_capture t on = t.capture <- on
let choice_capture t = t.capture

let at_choice t instant ~src ~dst ~label action =
  if not t.capture then at t instant action
  else begin
    let instant = Time.max instant t.clock in
    let event = { action; state = Parked } in
    t.choice_seq <- t.choice_seq + 1;
    let c = { id = t.choice_seq; key = instant; src; dst; label } in
    Hashtbl.replace t.parked c.id (c, event);
    event
  end

let pending_choices t =
  Hashtbl.fold
    (fun _ (c, (event : event)) acc -> if event.state = Parked then c :: acc else acc)
    t.parked []
  |> List.sort (fun a b -> compare a.id b.id)

let pending_choice_count t =
  Hashtbl.fold
    (fun _ ((_ : choice), (event : event)) n -> if event.state = Parked then n + 1 else n)
    t.parked 0

let fire t event =
  t.processed <- t.processed + 1;
  event.state <- Idle;
  event.action ()

(* Deliberately leaves the clock alone: the checker's schedule replaces
   timestamp order, and keeping the clock purely slice-driven makes
   states reached by commuted independent deliveries bit-identical. *)
let fire_choice t id =
  match Hashtbl.find_opt t.parked id with
  | None -> false
  | Some (_, event) ->
    Hashtbl.remove t.parked id;
    if event.state = Parked then fire t event;
    true

let release_choices t =
  let parked = Hashtbl.fold (fun _ ce acc -> ce :: acc) t.parked [] in
  Hashtbl.reset t.parked;
  List.sort (fun ((a : choice), _) (b, _) -> compare a.id b.id) parked
  |> List.iter (fun (c, event) -> if event.state = Parked then enqueue t c.key event)

let run ?until t =
  t.stopped <- false;
  let horizon = match until with None -> max_int | Some horizon -> horizon in
  let queue = t.queue in
  while
    (not t.stopped) && (not (Heap.is_empty queue)) && Heap.min_key queue <= horizon
  do
    t.clock <- Heap.min_key queue;
    let event = Heap.pop_min queue in
    if event.state = Queued then fire t event
    else begin
      event.state <- Idle;
      t.dead <- t.dead - 1
    end
  done;
  match until with
  | Some horizon when not t.stopped -> t.clock <- Time.max t.clock horizon
  | Some _ | None -> ()

let stop t = t.stopped <- true
let events_processed t = t.processed
let queue_size t = Heap.size t.queue - t.dead
let queue_peak t = Heap.peak t.queue
