(** Aardvark's regular-view-change policy (Section III-B of the RBFT
    paper, after Clement et al., NSDI 2009).

    A primary must sustain, at the start of its view, at least 90 % of
    the maximum throughput achieved by the primaries of the last [n]
    views. The requirement is stable during an initial grace period
    and is then raised by 1 % periodically until the primary fails to
    meet it, at which point the replica votes a view change. A
    heartbeat check demands a change from a primary that orders
    nothing while requests are pending. *)

open Dessim

type t

type config = {
  grace : Time.t;  (** 5 s in the paper *)
  view_warmup : Time.t;
      (** period after a view change during which the new primary is
          not judged (recovery, pipeline refill) *)
}

val default_config : config
(** The paper's 5 s grace and a 700 ms view warm-up. *)

val ratchet : float
(** 1.01: multiplicative raise of the requirement per monitoring
    period once the grace period is over. *)

val create : n:int -> config -> t
(** A policy for an [n]-replica cluster: it remembers the last [n]
    views, as in the paper. *)

val on_view_start : t -> now:Time.t -> unit
(** Close the current view's record (pushing its average throughput
    into the history) and compute the new view's initial requirement. *)

val note_ordered : t -> count:int -> unit

val required_rate : t -> float
(** Current requirement in req/s (0 while the history is empty). *)

type verdict = Ok | Demand_view_change

val tick : t -> now:Time.t -> pending:int -> verdict
(** Evaluate one monitoring period: compares the window's throughput
    against the (possibly ratcheted) requirement; also fires when the
    primary ordered nothing despite [pending > 0] requests (heartbeat
    expiry). *)
