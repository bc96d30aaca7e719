(* Deterministic merge of per-instance committed batch streams into
   one global execution order.

   Each protocol instance delivers its committed batches in seqno
   order (PBFT safety makes that stream identical at every correct
   node). The sequencer interleaves the streams round-robin: global
   round r executes per-instance batch r of instance 0, then of
   instance 1, ... The merge is a pure function of the per-instance
   streams — it never consults local time or queue depth — so every
   correct node computes the same global order.

   An instance with nothing to order would stall the round-robin
   forever; the bounded-wait skip of an idle instance is therefore
   materialised *inside* consensus: an idle primary orders an empty
   no-op heartbeat batch (see Pbftcore.Replica.hooks), so
   the skip itself is agreed upon and the merge stays deterministic.
   The only remaining stall is a partition whose instance genuinely
   stops committing (primary crashed or in a view change); the
   sequencer surfaces that as a head-of-line stall age for monitoring,
   the doctor's seq-stall trigger, and the stall-triggered instance
   change.

   Per-instance seqnos are carried for observability and gap
   accounting (a checkpoint state transfer skips seqnos); arrival
   order per instance *is* seqno order, so the merge itself keys only
   on arrival order and survives gaps without special cases. *)

open Dessim

type 'a t = {
  instances : int;
  emit : instance:int -> seq:int -> 'a -> unit;
  queues : (int * 'a) Queue.t array;  (* (seq, payload), arrival order *)
  expected : int array;  (* next seqno per instance, for gap accounting *)
  mutable cursor : int;  (* instance whose batch the merge needs next *)
  mutable rounds : int;  (* completed full round-robin rounds *)
  mutable merged : int;  (* batches emitted *)
  mutable pending : int;  (* batches queued behind the cursor *)
  mutable gaps : int;  (* seqno jumps observed (state transfers) *)
  mutable stalled : bool;
  mutable stall_since : Time.t;  (* valid when [stalled] *)
}

type stats = {
  merged : int;
  rounds : int;
  pending : int;
  gaps : int;
  stalled_instance : int option;
}

let create ~instances ~emit =
  if instances <= 0 then
    invalid_arg "Sequencer.create: instances must be positive";
  {
    instances;
    emit;
    queues = Array.init instances (fun _ -> Queue.create ());
    expected = Array.make instances 1;
    cursor = 0;
    rounds = 0;
    merged = 0;
    pending = 0;
    gaps = 0;
    stalled = false;
    stall_since = Time.zero;
  }

let drain t ~now =
  let progressed = ref true in
  let progressed_any = ref false in
  while !progressed do
    progressed := false;
    let inst = t.cursor in
    let q = t.queues.(inst) in
    if not (Queue.is_empty q) then begin
      let seq, payload = Queue.pop q in
      t.pending <- t.pending - 1;
      t.merged <- t.merged + 1;
      t.cursor <- inst + 1;
      if t.cursor = t.instances then begin
        t.cursor <- 0;
        t.rounds <- t.rounds + 1
      end;
      t.emit ~instance:inst ~seq payload;
      progressed := true;
      progressed_any := true
    end
  done;
  (* A stall measures time since the merge last *progressed*, not
     since batches first queued: one stream running a few batches
     ahead of the cursor's under load is normal and must not age into
     a stall while the merge keeps moving. *)
  if t.pending > 0 then begin
    if !progressed_any || not t.stalled then begin
      t.stalled <- true;
      t.stall_since <- now
    end
  end
  else t.stalled <- false

let push t ~instance ~seq ~now payload =
  if instance < 0 || instance >= t.instances then
    invalid_arg "Sequencer.push: instance out of range";
  if seq > t.expected.(instance) then t.gaps <- t.gaps + 1;
  t.expected.(instance) <- seq + 1;
  Queue.push (seq, payload) t.queues.(instance);
  t.pending <- t.pending + 1;
  drain t ~now

let stall t ~now =
  if t.stalled && t.pending > 0 then
    Some (t.cursor, Time.sub now t.stall_since)
  else None

let backlog t ~instance =
  if instance < 0 || instance >= t.instances then
    invalid_arg "Sequencer.backlog: instance out of range";
  Queue.length t.queues.(instance)

let stats (t : 'a t) =
  {
    merged = t.merged;
    rounds = t.rounds;
    pending = t.pending;
    gaps = t.gaps;
    stalled_instance = (if t.stalled && t.pending > 0 then Some t.cursor else None);
  }

let instances t = t.instances
