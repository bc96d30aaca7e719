(** The monitoring mechanism of Section IV-C.

    Each node counts, per protocol instance, the requests ordered by
    its local replica ([nbreqs]) and periodically turns the counters
    into throughputs. If the ratio between the master instance's
    throughput and the average backup throughput drops below Δ, the
    primary of the master instance is suspected. The same module
    tracks per-request ordering latency for the Λ (absolute) and Ω
    (cross-instance difference per client) fairness checks. *)

open Dessim

type t

val history_cap : int
(** 4096: how many past measurements {!tick} retains for {!history}
    (≈7 minutes of 100 ms windows); older measurements are discarded
    oldest-first. *)

val create : Params.t -> t

val set_master : t -> int -> unit
(** Tell the monitoring which instance is currently master (only moves
    under the [Switch_master] recovery extension). *)

val note_ordered : t -> instance:int -> count:int -> unit
(** The local replica of [instance] ordered [count] requests. *)

val note_offered : t -> instance:int -> count:int -> unit
(** Concurrent (bftrcc) ordering: [count] requests whose partition
    [instance] owns were offered for ordering (counted at dispatch).
    {!tick} then normalizes each instance's observed rate by its share
    of the offered load before applying the Δ test, keeping the
    master-demotion check meaningful when partitions legitimately
    carry different loads. Never calling this (redundant mode) leaves
    the verdict exactly as the paper specifies it. *)

val note_latency : t -> instance:int -> client:int -> Time.t -> unit
(** One request from [client] was ordered by [instance] with the given
    ordering latency (dispatch → delivery); feeds the per-client
    averages used by the Ω check, and does nothing while Ω is
    disabled. *)

type verdict = {
  rates : float array;  (** per-instance raw throughput over the window, req/s *)
  master_rate : float;
  backup_rate : float;  (** average of the backup instances *)
  ratio : float;
      (** master/backup throughput ratio the Δ test compares against
          the threshold; NaN while the backups are idle *)
  suspicious : bool;
      (** true when the Δ test fires: the master primary looks slow *)
  weights : float array;
      (** per-instance share of the offered load used for the
          normalization; uniform when no offered traffic was recorded
          (redundant mode), in which case the normalization is the
          identity *)
}

val backup_mean : master:int -> float array -> float
(** The mean of the per-instance [rates] of every instance but
    [master]; 0 with no backup instance. *)

val tick : t -> now:Time.t -> verdict
(** Close the current window, compute throughputs, reset the counters
    and remember the measurement (for {!history}). The Δ test is only
    applied when the backups show meaningful traffic (idle systems
    are never suspicious). *)

val lambda_violation : t -> latency:Time.t -> bool
(** Λ check for a request ordered by the master instance. *)

val omega_violation : t -> client:int -> bool
(** Ω check: the client's average latency on the master exceeds its
    average on the backups by more than Ω. *)

val history : t -> (Time.t * float array) list
(** Measurements recorded by {!tick}, oldest first — what Figures 9
    and 11 plot. At most [history_cap] entries are kept; once the cap
    is reached the oldest measurement is dropped for each new one. *)

val latest : t -> (Time.t * float array) option
(** The most recent measurement, if any. *)

val client_count : t -> int
(** Clients holding per-instance latency EMAs: 0 while Ω is disabled,
    otherwise one per client whose request an instance ordered (the
    same bound as the reply cache's clients). *)

val register_probes : t -> Bftmetrics.Probe.t -> owner:string -> unit
(** Register footprints on the probe over the monitor's
    O(clients) latency table and its measurement-history ring. *)
