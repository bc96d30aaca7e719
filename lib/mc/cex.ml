open Dessim

type repro = {
  scenario : Bftchaos.Scenario.t;  (** final (possibly shrunk) scenario *)
  path : string option;  (** where the [.scn] file was written *)
  reproduced : bool;
  shrink_tests : int;
  target_digest : string;
}

(* One digest scheme for both property families: SHA-256 over the
   sorted distinct invariant names, via the auditor's helper. Liveness
   problems are folded in as pseudo-violations. *)
let target_digest (cex : Search.cex) =
  let of_liveness (p : Bftaudit.Liveness.problem) =
    {
      Bftaudit.Auditor.time = Time.zero;
      invariant = p.Bftaudit.Liveness.invariant;
      detail = p.Bftaudit.Liveness.detail;
    }
  in
  let agreement =
    if cex.Search.cex_agreement then []
    else
      [
        {
          Bftaudit.Auditor.time = Time.zero;
          invariant = "execution-divergence";
          detail = "execution digests diverged across correct nodes";
        };
      ]
  in
  Bftaudit.Auditor.invariant_digest
    (cex.Search.cex_safety
    @ List.map of_liveness cex.Search.cex_liveness
    @ agreement)

(* A schedule cannot be serialized into a fault plan — [.scn] has no
   delivery-order vocabulary — so the counterexample is re-expressed in
   the coordinates a scenario does have: same crash placement, same
   mutation, and the same tight Λ, under a rate-driven workload whose
   realistic ordering latency re-triggers the instance-change path on
   every run. For the mutation family this reproduces the identical
   invariant deterministically, which is what the shrinker needs. *)
let to_scenario ?(name = "mc-cex") (cex : Search.cex) =
  let cfg = cex.Search.cex_config in
  let duration = Time.ms 500 in
  {
    Bftchaos.Scenario.name;
    protocol = Flavour.Rbft;
    f = cfg.World.f;
    seed = cfg.World.seed;
    duration;
    drain = Time.sec 1;
    workload = { Bftchaos.Scenario.clients = 2; rate = 200.0; payload = 8 };
    faults =
      List.map
        (fun node ->
          {
            Bftchaos.Fault.at = Time.zero;
            until = duration;
            kind = Bftchaos.Fault.Crash { node };
          })
        cfg.World.crashes;
    lambda = cfg.World.lambda;
    mutation =
      (if cfg.World.mutate then Some Bftchaos.Scenario.Ic_quorum_low else None);
  }

let reproduces ~target scenario =
  let r = Bftchaos.Runner.run scenario in
  r.Bftchaos.Runner.safety_violations <> []
  && String.equal
       (Bftaudit.Auditor.invariant_digest r.Bftchaos.Runner.safety_violations)
       target

let extract ?(budget = 200) ?out (cex : Search.cex) =
  let target = target_digest cex in
  let scenario = to_scenario cex in
  let finish scenario ~reproduced ~shrink_tests =
    Option.iter (Bftchaos.Scenario.save scenario) out;
    { scenario; path = out; reproduced; shrink_tests; target_digest = target }
  in
  if cex.Search.cex_safety = [] then
    (* Liveness/agreement findings depend on the exact schedule; the
       scenario documents the placement but a rate-driven replay is not
       expected to re-trigger them. Saved unshrunk. *)
    finish scenario ~reproduced:false ~shrink_tests:0
  else if not (reproduces ~target scenario) then
    finish scenario ~reproduced:false ~shrink_tests:0
  else
    let shrunk, shrink_tests =
      Bftchaos.Shrink.minimize ~budget (reproduces ~target) scenario
    in
    finish shrunk ~reproduced:true ~shrink_tests

let pp_principal ppf src =
  if src >= 0 then Format.fprintf ppf "n%d" src
  else Format.fprintf ppf "c%d" (-src - 1)

(* The violating schedule, one delivery per line. *)
let pp_schedule ppf (cex : Search.cex) =
  List.iteri
    (fun i (c : Engine.choice) ->
      Format.fprintf ppf "  %2d. %a -> n%d  %s@." (i + 1) pp_principal
        c.Engine.src c.Engine.dst c.Engine.label)
    cex.Search.schedule

let pp ppf (cex : Search.cex) =
  Format.fprintf ppf "crashes: [%s]@."
    (String.concat "," (List.map string_of_int cex.Search.cex_config.World.crashes));
  Format.fprintf ppf "schedule (%d deliveries):@."
    (List.length cex.Search.schedule);
  pp_schedule ppf cex;
  List.iter
    (fun v ->
      Format.fprintf ppf "safety: %a@." Bftaudit.Auditor.pp_violation v)
    cex.Search.cex_safety;
  List.iter
    (fun p ->
      Format.fprintf ppf "liveness: %a@." Bftaudit.Liveness.pp_problem p)
    cex.Search.cex_liveness;
  if not cex.Search.cex_agreement then
    Format.fprintf ppf "agreement: execution digests diverged@."
