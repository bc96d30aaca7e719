(** A chaos scenario: everything needed to reproduce one run.

    [(seed, workload, fault plan)] plus the protocol and cluster size
    fully determine a simulation, so a failing exploration can be
    saved to a file and replayed bit-identically (same audit digest)
    later — see {!Runner}.

    The on-disk format is an s-expression; all times are integer
    nanoseconds and floats print with 17 significant digits, so
    [load (save s) = s] exactly (the codec round-trip property tested
    in [test_chaos.ml]). *)

open Dessim

type workload = {
  clients : int;
  rate : float;  (** requests per second per client *)
  payload : int;  (** request payload bytes *)
}

type mutation = Ic_quorum_low
      (** run with a deliberately broken instance-change quorum of 1
          instead of 2f+1 — the model checker's mutation self-test;
          the auditor's [instance-change-quorum] invariant must fire *)

type t = {
  name : string;
  protocol : Flavour.t;
      (** written by its {!Flavour.slug}. Under [Rbft_concurrent],
          crashing a partition owner or cutting a sequencer input
          exercises the stall-driven instance change and the degrade
          path. *)
  f : int;  (** cluster size is 3f+1 *)
  seed : int64;  (** engine seed; also seeds the injector stream *)
  duration : Time.t;  (** chaos phase: workload + faults *)
  drain : Time.t;  (** post-heal settle phase used as the liveness bound *)
  workload : workload;
  faults : Fault.plan;
  lambda : Time.t;
      (** Λ parameter handed to RBFT protocols ([Time.zero] = disabled,
          the default); counterexamples emitted by the model checker
          carry a tight Λ so the instance-change path re-triggers under
          rate-driven replay. Serialized only when non-zero, so
          pre-existing [.scn] files are unaffected. *)
  mutation : mutation option;
      (** protocol mutation to install ([None] = faithful protocol);
          serialized only when set *)
}

val to_string : t -> string
val of_string : string -> (t, string) result

val save : t -> string -> unit
(** Write to a file (the conventional extension is [.scn]). *)

val load : string -> (t, string) result
