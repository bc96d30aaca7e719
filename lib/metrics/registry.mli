(** Labeled metric families: counters, gauges and histograms.

    A family is registered once (name, kind, help, label names) and
    owns one child instrument per distinct label set. Instrumented
    code registers its children at component-creation time and keeps
    the handles, so a hot-path update is a single field mutation —
    no lookup, no allocation.

    A registry does not gate collection itself: the {!Probe} that owns
    it carries the on/off switch, and its event calls update the
    handles only while metrics are on. *)

module Counter : sig
  type t

  val inc : t -> unit
  val add : t -> int -> unit
  val value : t -> int
end

module Gauge : sig
  type t

  val set : t -> float -> unit
  val add : t -> float -> unit
  val value : t -> float
end

type labels = (string * string) list
(** Label pairs; order does not matter (canonicalised by name). *)

type kind = Counter_kind | Gauge_kind | Histogram_kind

val kind_name : kind -> string

type t
(** A registry. Each {!Probe.t} owns one. *)

val create : unit -> t

val counter : ?help:string -> t -> string -> labels:labels -> Counter.t
(** [counter t name ~labels] registers (or finds) the child of the
    counter family [name] with the given labels. Raises
    [Invalid_argument] if [name] is already a different kind or uses
    different label names. *)

val gauge : ?help:string -> t -> string -> labels:labels -> Gauge.t

val gauge_fn : ?help:string -> t -> string -> labels:labels -> (unit -> float) -> unit
(** A gauge backed by a callback, read only at sample/export time —
    zero hot-path cost (queue depths, engine event counts).
    Re-registering replaces the callback, so per-run components can
    rebind a fresh closure over the same series. *)

val histogram :
  ?help:string -> ?min_value:float -> ?gamma:float -> t -> string ->
  labels:labels -> Hist.t
(** A log-bucketed {!Hist} child ([min_value], [gamma] as in
    {!Hist.create}); observe with [Hist.add]. *)

(** {2 Introspection} — exporters, the sampler and tests. *)

type family

val families : t -> family list
(** In registration order. *)

val family_name : family -> string
val family_help : family -> string
val family_kind : family -> kind

type instrument =
  | Counter_i of Counter.t
  | Gauge_i of Gauge.t
  | Gauge_fn_i of (unit -> float) ref
  | Histogram_i of Hist.t

val children_of : family -> (labels * instrument) list
(** Sorted by label values, for deterministic export order. *)

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_max : float;
}

val summarize : Hist.t -> hist_summary

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_summary

type sample = { s_name : string; s_labels : labels; s_value : value }

val snapshot : t -> sample list
(** Point-in-time values of every child (callback gauges are read). *)

val reset : t -> unit
(** Zero every value but keep families and children, so instrument
    handles held by live components stay valid. Callback gauges are
    untouched. *)
