open Dessim
open Pbftcore.Types

type t = {
  budget : int;
  held : unit Request_id_table.t;
  mutable admitted_total : int;
  mutable shed_total : int;
}

let create ~budget =
  { budget; held = Request_id_table.create 256; admitted_total = 0; shed_total = 0 }

let enabled t = t.budget > 0
let inflight t = Request_id_table.length t.held
let holds t id = Request_id_table.mem t.held id
let admitted_total t = t.admitted_total
let shed_total t = t.shed_total

let admit t id ~backlog =
  if t.budget <= 0 || Request_id_table.length t.held < t.budget then begin
    Request_id_table.replace t.held id ();
    t.admitted_total <- t.admitted_total + 1;
    Ok ()
  end
  else begin
    t.shed_total <- t.shed_total + 1;
    (* The retry hint is how long the shedding stage needs to drain
       what it has already accepted — an honest estimate of when a
       retry can be admitted — floored at the backoff base so clients
       never spin on a hint of zero. *)
    Error (Time.max Backoff.base backlog)
  end

let release t id = Request_id_table.remove t.held id

let register_probes t probe ~owner =
  ignore
    (Bftmetrics.Probe.footprint probe ~owner ~name:"node.admission_held"
       ~entries:(fun () -> Request_id_table.length t.held)
       ~root:(fun () -> Some (Obj.repr t.held))
       ())
