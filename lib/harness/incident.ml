(** RBFT-aware doctor attachment.

    {!Bftdoctor} is protocol-agnostic; this module closes the loop for
    RBFT clusters: the bundle's config fields come from
    {!Rbft.Cluster.describe}, the dump-time context records the node
    currently acting as master primary (so the analyzer can name the
    culprit of a master-underperformance or Δ-envelope incident), and
    the trigger set adds the NIC-closure and Δ-ratio near-miss watches
    using the cluster's own [delta] parameter. *)

open Dessim
module Trigger = Bftdoctor.Trigger
module Doctor = Bftdoctor.Doctor

(* Dump on instance change or auditor violation, on a NIC closure, and
   when the monitoring ratio skirts the Δ envelope (the worst2
   signature: a malicious master throttling just above the demotion
   threshold). *)
let triggers (cluster : Rbft.Cluster.t) =
  let params = Rbft.Cluster.params cluster in
  [
    Trigger.spec Trigger.Instance_change ~cooldown:(Time.sec 1);
    Trigger.spec Trigger.Auditor_violation ~cooldown:(Time.sec 1);
    (* worst1 is tolerated without an instance change; the NIC closure
       is its trigger. No debounce: at full load the event ring turns
       over in well under 100 ms, so the bundle must freeze at the
       closure instant for the nic-closed event to still be in it. *)
    Trigger.spec Trigger.Nic_closure ~cooldown:(Time.sec 2);
    Trigger.spec
      (Trigger.Delta_ratio_near { delta = params.Rbft.Params.delta })
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

(** Attach a doctor to an RBFT cluster; bundles go under [dir] when
    given, and [extra_fields] join the cluster's description in each
    bundle's config. *)
let attach ?dir ?(extra_fields = []) cluster =
  let describe = Rbft.Cluster.describe cluster in
  let seed =
    match List.assoc_opt "seed" describe with
    | Some s -> Int64.of_string s
    | None -> 1L
  in
  Doctor.attach
    {
      Doctor.dir;
      seed;
      config_fields = describe @ extra_fields;
      context =
        Some
          (fun () ->
            [
              ( "master_primary",
                string_of_int (Rbft.Cluster.master_primary cluster) );
            ]);
      scenario = None;
      triggers = triggers cluster;
    }
    (Rbft.Cluster.probe cluster) (Rbft.Cluster.engine cluster)
