(** Harness-level audit orchestration.

    When {!enabled} is set (the bench's [--audit] flag), every
    experiment run gets a fresh online {!Bftaudit.Auditor} attached
    before its cluster is built, so all harness experiments are
    safety-checked as they execute.  Auditors raise on the first
    violation, so a bench that completes printed-report ends with zero
    violations by construction; {!summary} reports how much was
    checked. *)

let enabled = ref false

type stats = { mutable runs : int; mutable events : int }

let stats = { runs = 0; events = 0 }
let current : Bftaudit.Auditor.t option ref = ref None

(** End the current audited run: fold its event count into the
    totals and detach its auditor, so nothing that runs afterwards
    (micro-benchmarks, unaudited sweeps) reaches it. No-op when no run
    is attached. *)
let end_run () =
  match !current with
  | Some a ->
    stats.events <- stats.events + Bftaudit.Auditor.events_checked a;
    Bftaudit.Auditor.detach a;
    current := None
  | None -> ()

(** Start auditing one experiment run. Must be called before the
    cluster is created and the attack installed: it clears the
    Byzantine-node registry that attack installers repopulate. *)
let begin_run ~n ~f =
  if !enabled then begin
    end_run ();
    Bftaudit.Auditor.reset_declared ();
    current := Some (Bftaudit.Auditor.attach ~n ~f ());
    stats.runs <- stats.runs + 1
  end

(** Exclude [nodes] from the current run's safety conclusions (inline
    harness attacks that do not go through [Rbft.Attacks]). *)
let declare_faulty nodes = Bftaudit.Auditor.declare_faulty nodes

let summary () =
  end_run ();
  if !enabled then
    Some
      (Printf.sprintf "%d run(s) audited, %d events checked, 0 violations"
         stats.runs stats.events)
  else None
