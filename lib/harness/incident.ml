(** RBFT-aware doctor attachment.

    {!Bftdoctor} is protocol-agnostic; this module closes the loop for
    RBFT clusters: the bundle's config fields come from
    {!Rbft.Cluster.describe}, the dump-time context records the node
    currently acting as master primary (so the analyzer can name the
    culprit of a master-underperformance incident), and the default
    trigger set adds the Δ-ratio near-miss watch using the cluster's
    own [delta] parameter. *)

open Dessim
module Trigger = Bftdoctor.Trigger
module Doctor = Bftdoctor.Doctor

(** Default triggers for a harness run: dump on instance change or
    auditor violation, and watch the monitoring ratio skirting the Δ
    envelope (the worst2 signature: a malicious master throttling just
    above the demotion threshold). [epsilon] defaults to 0.04 — wide
    enough to catch a throttle tuned to 1-2% above Δ, narrow enough
    that an honest master at full speed (ratio ≈ 1) never arms it. *)
let default_triggers ?(epsilon = 0.04) (cluster : Rbft.Cluster.t) =
  let params = Rbft.Cluster.params cluster in
  let delta = params.Rbft.Params.delta in
  [
    Trigger.spec Trigger.Instance_change ~cooldown:(Time.sec 1);
    Trigger.spec Trigger.Auditor_violation ~cooldown:(Time.sec 1);
    (* worst1 is tolerated without an instance change; the NIC closure
       is its trigger. No debounce: at full load the event ring turns
       over in well under 100 ms, so the bundle must freeze at the
       closure instant for the nic-closed event to still be in it. *)
    Trigger.spec Trigger.Nic_closure ~cooldown:(Time.sec 2);
    Trigger.spec
      (Trigger.Delta_ratio_near { delta; epsilon })
      ~debounce:(Time.ms 300) ~cooldown:(Time.sec 2);
  ]
  @
  (* Concurrent (bftrcc) ordering: watch the merge sequencer for a
     head-of-line stall, with the bound at ~half the stall-driven
     instance-change timeout so the bundle freezes while the stall is
     still live (the instance change then re-homes the partition and
     clears it). *)
  match params.Rbft.Params.ordering with
  | Rbft.Params.Redundant -> []
  | Rbft.Params.Concurrent ->
    let age = Time.mul_f Rbft.Params.stall_change 0.5 in
    [ Trigger.spec (Trigger.Seq_stall { age }) ~cooldown:(Time.sec 2) ]

let config ?dir ?triggers ?epsilon ?scenario ?(extra_fields = [])
    (cluster : Rbft.Cluster.t) =
  let triggers =
    match triggers with
    | Some ts -> ts
    | None -> default_triggers ?epsilon cluster
  in
  let seed =
    match List.assoc_opt "seed" (Rbft.Cluster.describe cluster) with
    | Some s -> Int64.of_string s
    | None -> 1L
  in
  Doctor.default_config ~dir ~seed
    ~config_fields:(Rbft.Cluster.describe cluster @ extra_fields)
    ~context:
      (Some
         (fun () ->
           [
             ( "master_primary",
               string_of_int (Rbft.Cluster.master_primary cluster) );
           ]))
    ~scenario ~triggers ()

(** Attach a doctor to an RBFT cluster with the harness defaults. *)
let attach ?dir ?triggers ?epsilon ?scenario ?extra_fields cluster =
  Doctor.attach
    (config ?dir ?triggers ?epsilon ?scenario ?extra_fields cluster)
    (Rbft.Cluster.probe cluster) (Rbft.Cluster.engine cluster)
