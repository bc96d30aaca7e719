(** The Spinning ordering protocol (Veronese et al., SRDS 2009), as
    analysed in Section III-C of the RBFT paper.

    The primary rotates automatically after every ordered batch: batch
    [s] is proposed by replica [s mod n] (skipping blacklisted
    replicas), with no message exchange for the hand-over. Clients
    broadcast their requests to all replicas; a non-primary replica
    that waits longer than [s_timeout] for a pending request to be
    ordered accuses the current proposer; 2f+1 accusations blacklist
    it (at most f replicas blacklisted, oldest released) and reassign
    the batch, doubling [s_timeout]. Ordering uses MACs only — no
    signatures — which is why Spinning posts the highest fault-free
    throughput in the paper's Figure 7.

    This module is the protocol engine of one replica; the hosting
    {!Node} provides transport, CPU accounting and execution. *)

open Dessim
open Pbftcore.Types

type config = { n : int; f : int; replica_id : int }

val batch_size : int
(** 16 requests per proposal. *)

val s_timeout : Time.t
(** 40 ms, as in the paper's experiments: the initial accusation
    timeout, doubled per blacklisting. *)

val pipeline : int
(** 4 batches may be in flight concurrently. *)

type msg =
  | Pre_prepare of { seq : int; descs : request_desc list; attempt : int }
  | Prepare of { seq : int; digest : string; attempt : int }
  | Commit of { seq : int; digest : string; attempt : int }
  | Accuse of { seq : int }

type callbacks = {
  broadcast : msg -> unit;
  deliver : int -> request_desc list -> unit;
}

type adversary = {
  mutable pp_delay : unit -> Time.t;
      (** delay added before each proposal when this replica is the
          proposer — set to just under [s_timeout] for the Figure 3
          attack *)
  mutable silent : bool;
}

type t

(** [create ?clock engine cfg cb]: [?clock] routes the replica's
    accusation timer through a skewable {!Dessim.Clock}; defaults to an
    unskewed clock on [engine]. *)
val create : probe:Bftmetrics.Probe.t -> ?clock:Clock.t -> Engine.t -> config -> callbacks -> t
val adversary : t -> adversary

val submit : ?span:int -> t -> request_desc -> unit
(** [?span] (default [-1]) is the parent span id of a traced request:
    on delivery the replica emits batch-wait / prepare / commit phase
    spans chained under it, and keeps the commit span id for
    {!take_span}. *)

val take_span : t -> id:request_id -> int
(** Collects (and clears) the commit span id recorded for a delivered
    traced request; [-1] if the request was untraced or not delivered
    here. *)

val receive : t -> from:int -> msg -> unit
(** A message arrived from replica [from], its authenticated source;
    votes and accusations count for [from], once per quorum. *)

val proposer_of : t -> seq:int -> int
(** Current proposer for a batch, accounting for blacklisting and
    reassignments. *)

val blacklist : t -> int list
val ordered_count : t -> int
val delivered_seqs : t -> int
val pending_count : t -> int
val current_timeout : t -> Time.t
