(** Harness-level audit orchestration: one value per harness
    invocation counts what its audited runs checked. When it is
    [enabled] (the bench's [--audit] flag), each run gets a fresh
    online {!Bftaudit.Auditor} on the run's own probe before its
    cluster is built. Auditors raise on the first violation, so a
    bench that completes ends with zero violations by construction;
    {!summary} reports how much was checked. *)

type t = { enabled : bool; mutable runs : int; mutable events : int }

let create ?(enabled = false) () = { enabled; runs = 0; events = 0 }

(** Run [body], which builds and drives one cluster on [probe], under
    an auditor when [t] is enabled, and fold its event count into the
    totals. *)
let run t probe ~n ~f body =
  if not t.enabled then body ()
  else begin
    let auditor = Bftaudit.Auditor.attach ~probe ~n ~f () in
    t.runs <- t.runs + 1;
    let result = body () in
    t.events <- t.events + Bftaudit.Auditor.events_checked auditor;
    Bftaudit.Auditor.detach auditor;
    result
  end

let summary t =
  if t.enabled then
    Some
      (Printf.sprintf "%d run(s) audited, %d events checked, 0 violations" t.runs t.events)
  else None
