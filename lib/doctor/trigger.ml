(** Declarative anomaly triggers with per-trigger debounce and
    cooldown.

    Two condition families share one arming state machine:

    - {e edge} conditions are point occurrences reported as they
      happen: an instance change fired, the auditor recorded a
      violation ({!edge});
    - {e level} conditions are predicates re-evaluated at every
      recorder tick: liveness stall, monitoring Δ-ratio within
      {!near_epsilon} of the instance-change threshold, sequencer
      head-of-line stall ({!level}).

    [debounce] is how long a condition must persist before the trigger
    fires. An edge occurrence arms the trigger and the fire happens
    once [debounce] has elapsed (repeat occurrences in between coalesce
    into the armed one; [debounce = 0] fires at the occurrence itself).
    A level condition must hold at every evaluation for [debounce]
    before firing, and disarms the moment it evaluates false.

    [cooldown] is the minimum sim-time between two fires of the same
    trigger; occurrences and satisfied conditions inside the cooldown
    window are discarded, so one incident cannot dump a bundle storm. *)

open Dessim

type kind =
  | Instance_change
  | Auditor_violation
  | Nic_closure
      (** A node closed a NIC against a flooding peer — the worst1
          signature. The attack is tolerated (that is the point of the
          defense), so nothing downstream fires; the closure itself is
          the forensic moment worth a bundle. *)
  | Liveness_stall of { idle : Time.t }
      (** No execution for [idle] sim-time while requests are pending. *)
  | Delta_ratio_near of { delta : float }
      (** The monitoring ratio master/backup is above the
          instance-change threshold [delta] but within {!near_epsilon}
          of it — the master is skirting the Δ envelope without (yet)
          triggering an instance change, which is exactly the worst2
          attack profile. *)
  | Seq_stall of { age : Time.t }
      (** Concurrent (bftrcc) ordering only: the deterministic merge
          sequencer has been waiting at the head of one instance's
          stream for at least [age] — a head-of-line stall. Set [age]
          below [Params.stall_change] to freeze a bundle while the
          stall is still live, before the stall-driven instance change
          re-homes the partition and clears it. *)

(* Mirrors Rbft.Monitoring.min_meaningful_rate: below this backup
   rate the ratio is noise, not evidence. *)
let min_meaningful_rate = 50.0

(* Width of the Δ near-miss band: wide enough to catch a throttle
   tuned to 1-2% above Δ, narrow enough that an honest master at full
   speed (ratio ≈ 1) never enters it. *)
let near_epsilon = 0.04

(* [delta <= ratio < delta + near_epsilon]: the band the near-miss
   trigger watches and the analyzer attributes from. *)
let in_near_band ~delta ratio = ratio >= delta && ratio < delta +. near_epsilon

let kind_name = function
  | Instance_change -> "instance-change"
  | Auditor_violation -> "auditor-violation"
  | Nic_closure -> "nic-closure"
  | Liveness_stall _ -> "liveness-stall"
  | Delta_ratio_near _ -> "delta-ratio-near"
  | Seq_stall _ -> "seq-stall"

type spec = { kind : kind; debounce : Time.t; cooldown : Time.t }

let spec ?(debounce = Time.zero) ?(cooldown = Time.sec 1) kind =
  { kind; debounce; cooldown }

type t = {
  spec : spec;
  mutable armed_since : Time.t option;
  mutable armed_reason : string;
  mutable last_fired : Time.t option;
  mutable fires : int;
}

type fire = { at : Time.t; name : string; reason : string }

let make spec =
  { spec; armed_since = None; armed_reason = ""; last_fired = None; fires = 0 }

let name t = kind_name t.spec.kind
let kind t = t.spec.kind
let fires t = t.fires
let armed t = t.armed_since <> None

let in_cooldown t ~now =
  match t.last_fired with
  | Some last -> Time.sub now last < t.spec.cooldown
  | None -> false

let do_fire t ~now =
  t.armed_since <- None;
  t.last_fired <- Some now;
  t.fires <- t.fires + 1;
  Some { at = now; name = name t; reason = t.armed_reason }

(** Report an edge occurrence. Returns the fire, if this occurrence
    (or an earlier armed one whose debounce has now elapsed) fires. *)
let edge t ~now ~reason =
  if in_cooldown t ~now then None
  else
    match t.armed_since with
    | None ->
      t.armed_since <- Some now;
      t.armed_reason <- reason;
      if t.spec.debounce <= Time.zero then do_fire t ~now else None
    | Some since ->
      if Time.sub now since >= t.spec.debounce then do_fire t ~now else None

(** Tick evaluation for an armed edge trigger whose debounce may have
    elapsed without a further occurrence. *)
let ripen t ~now =
  match t.armed_since with
  | Some since
    when Time.sub now since >= t.spec.debounce && not (in_cooldown t ~now) ->
    do_fire t ~now
  | _ -> None

(** Tick evaluation of a level condition. *)
let level t ~now ~cond ~reason =
  if not cond then begin
    t.armed_since <- None;
    None
  end
  else begin
    (match t.armed_since with
    | None ->
      t.armed_since <- Some now;
      t.armed_reason <- reason
    | Some _ ->
      (* keep the arming instant, refresh the evidence *)
      t.armed_reason <- reason);
    match t.armed_since with
    | Some since
      when Time.sub now since >= t.spec.debounce && not (in_cooldown t ~now)
      ->
      do_fire t ~now
    | _ -> None
  end
