(** Harness-level audit orchestration: one value per harness
    invocation carries the probe every experiment cluster reports to.
    When it is [enabled] (the bench's [--audit] flag), each experiment
    run gets a fresh online {!Bftaudit.Auditor} on that probe before
    its cluster is built. Auditors raise on the first violation, so a
    bench that completes ends with zero violations by construction;
    {!summary} reports how much was checked. *)

module Probe = Bftmetrics.Probe

type t = {
  probe : Probe.t;
  enabled : bool;
  mutable runs : int;
  mutable events : int;
  mutable current : Bftaudit.Auditor.t option;
}

let create ?(enabled = false) probe = { probe; enabled; runs = 0; events = 0; current = None }
let probe t = t.probe

(** End the current audited run: fold its event count into the
    totals and detach its auditor. No-op when no run is attached. *)
let end_run t =
  match t.current with
  | Some a ->
    t.events <- t.events + Bftaudit.Auditor.events_checked a;
    Bftaudit.Auditor.detach a;
    t.current <- None
  | None -> ()

(** Start auditing one experiment run. Must be called before the
    cluster is created and the attack installed: it clears the
    probe's declared-faulty set that attack installers repopulate. *)
let begin_run t ~n ~f =
  if t.enabled then begin
    end_run t;
    Probe.reset_declared t.probe;
    t.current <- Some (Bftaudit.Auditor.attach ~probe:t.probe ~n ~f ());
    t.runs <- t.runs + 1
  end

(** Exclude [nodes] from the current run's safety conclusions (inline
    harness attacks that do not go through [Rbft.Attacks]). *)
let declare_faulty t nodes = Probe.declare_faulty t.probe nodes

let summary t =
  end_run t;
  if t.enabled then
    Some
      (Printf.sprintf "%d run(s) audited, %d events checked, 0 violations" t.runs t.events)
  else None
