type event = { action : unit -> unit; mutable cancelled : bool }

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
    capture = false;
    choice_seq = 0;
    parked = Hashtbl.create 64;
    on_job_start;
  }

let on_job_start t = t.on_job_start

let now t = t.clock
let rng t = t.root_rng
let fresh_rng t = Rng.split t.root_rng

let at t instant action =
  let instant = Time.max instant t.clock in
  let event = { action; cancelled = false } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~key:instant ~seq:t.seq event;
  event

let after t delay action = at t (Time.add t.clock (Time.max Time.zero delay)) action

let cancel event = event.cancelled <- true

let pending event = not event.cancelled

(* ------------------------------------------------------------------ *)
(* Choice events (the model-checker scheduler seam)                    *)
(* ------------------------------------------------------------------ *)

let set_choice_capture t on = t.capture <- on
let choice_capture t = t.capture

let at_choice t instant ~src ~dst ~label action =
  if not t.capture then at t instant action
  else begin
    let instant = Time.max instant t.clock in
    let event = { action; cancelled = false } in
    t.choice_seq <- t.choice_seq + 1;
    let c = { id = t.choice_seq; key = instant; src; dst; label } in
    Hashtbl.replace t.parked c.id (c, event);
    event
  end

let pending_choices t =
  Hashtbl.fold
    (fun _ (c, (event : event)) acc ->
      if event.cancelled then acc else c :: acc)
    t.parked []
  |> List.sort (fun a b -> compare a.id b.id)

let pending_choice_count t =
  Hashtbl.fold
    (fun _ ((_ : choice), (event : event)) n ->
      if event.cancelled then n else n + 1)
    t.parked 0

(* Deliberately leaves the clock alone: the checker's schedule replaces
   timestamp order, and keeping the clock purely slice-driven makes
   states reached by commuted independent deliveries bit-identical. *)
let fire_choice t id =
  match Hashtbl.find_opt t.parked id with
  | None -> false
  | Some (_, event) ->
    Hashtbl.remove t.parked id;
    if not event.cancelled then begin
      t.processed <- t.processed + 1;
      event.cancelled <- true;
      event.action ()
    end;
    true

let release_choices t =
  let parked = Hashtbl.fold (fun _ ce acc -> ce :: acc) t.parked [] in
  Hashtbl.reset t.parked;
  List.sort (fun ((a : choice), _) (b, _) -> compare a.id b.id) parked
  |> List.iter (fun (c, event) ->
         t.seq <- t.seq + 1;
         Heap.push t.queue ~key:(Time.max c.key t.clock) ~seq:t.seq event)

let run ?until t =
  t.stopped <- false;
  let horizon = match until with None -> max_int | Some horizon -> horizon in
  let queue = t.queue in
  while
    (not t.stopped) && (not (Heap.is_empty queue)) && Heap.min_key queue <= horizon
  do
    t.clock <- Heap.min_key queue;
    let event = Heap.pop_min queue in
    if not event.cancelled then begin
      t.processed <- t.processed + 1;
      event.cancelled <- true;
      event.action ()
    end
  done;
  match until with
  | Some horizon when not t.stopped -> t.clock <- Time.max t.clock horizon
  | Some _ | None -> ()

let stop t = t.stopped <- true
let events_processed t = t.processed
let queue_size t = Heap.size t.queue
