(** Messages of one ordering instance (the 3-phase commit protocol of
    PBFT, steps 3–5 in the paper's Figure 5, plus view change and
    checkpoint traffic).

    Every constructor stores only what the real message carries; the
    [wire_size] function computes the on-the-wire footprint (including
    the MAC authenticator) that the network substrate charges for.

    No constructor names its sender. A message's sender is its
    authenticated source: the replica that receives it is told who sent
    it ({!Replica.receive}'s [~from]), and counts one vote per source. *)

open Types

type pre_prepare = {
  view : view;
  seq : seqno;
  descs : request_desc list;  (** the ordered batch *)
}

type prepared_proof = {
  pseq : seqno;
  pview : view;
  pdigest : string;
  pdescs : request_desc list;
      (** the batch behind [pdigest] (identifiers only), so the new
          primary can re-propose a certificate whose PRE-PREPARE it
          never received *)
}
(** Prepared certificate carried by VIEW-CHANGE messages: the sender
    collected 2f matching PREPAREs for [pdigest] at [pseq] in [pview].
    The new primary re-proposes, per sequence number, the certificate
    with the highest [pview] across 2f+1 VIEW-CHANGEs (the new-view
    computation of PBFT), which is what keeps a batch committed at one
    replica from being displaced in a later view. *)

type t =
  | Pre_prepare of pre_prepare
  | Prepare of { view : view; seq : seqno; digest : string }
  | Commit of { view : view; seq : seqno; digest : string }
  | Checkpoint of { seq : seqno; state_digest : string }
  | View_change of {
      new_view : view;
      last_stable : seqno;
      prepared : prepared_proof list;
    }
  | New_view of { view : view; pre_prepares : pre_prepare list }

val batch_digest : request_desc list -> string
(** Digest binding a batch's identifiers; what PREPARE/COMMIT refer
    to. The last few batches digested in the calling domain are
    remembered by identity, so the replicas that receive one shared
    PRE-PREPARE digest its batch once between them. *)

val wire_size : n:int -> order_full_requests:bool -> t -> int
(** [wire_size ~n ~order_full_requests m] in bytes. [n] sizes the MAC
    authenticator; with [order_full_requests] PRE-PREPAREs carry whole
    operations (Aardvark's behaviour), otherwise identifiers only
    (RBFT's instances, Section IV-B step 2). *)

val type_tag : t -> string
(** Short label, for traces and tests. *)

val pp : Format.formatter -> t -> unit
