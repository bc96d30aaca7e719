open Dessim

type t = {
  budget : int;
  retry_base : Time.t;
  mutable inflight : int;
  mutable admitted_total : int;
  mutable shed_total : int;
}

let create ~budget ~retry_base =
  {
    budget;
    retry_base;
    inflight = 0;
    admitted_total = 0;
    shed_total = 0;
  }

let enabled t = t.budget > 0
let inflight t = t.inflight
let admitted_total t = t.admitted_total
let shed_total t = t.shed_total

let admit t ~backlog =
  if t.budget <= 0 || t.inflight < t.budget then begin
    t.inflight <- t.inflight + 1;
    t.admitted_total <- t.admitted_total + 1;
    Ok ()
  end
  else begin
    t.shed_total <- t.shed_total + 1;
    (* The retry hint is how long the shedding stage needs to drain
       what it has already accepted — an honest estimate of when a
       retry can be admitted — floored at [retry_base] so clients
       never spin on a hint of zero. *)
    Error (Time.max t.retry_base backlog)
  end

let release t = if t.inflight > 0 then t.inflight <- t.inflight - 1
