(** Chrome about:tracing / Perfetto trace_event export: every exporter
    (audit and span captures, incident bundles, GC counter series)
    builds a list of events for the one writer. Timestamps are virtual
    time, printed in microseconds; [args] are JSON object fields
    without the braces. *)

type event =
  | Complete of {
      name : string; ts : Dessim.Time.t; dur : Dessim.Time.t; pid : int; tid : int; args : string }
      (** an ["X"] interval *)
  | Instant of { name : string; ts : Dessim.Time.t; pid : int; tid : int; args : string option }
      (** an ["i"] thread-scoped mark; [None] omits the [args] key *)
  | Counter of { name : string; ts : Dessim.Time.t; value : float }
      (** a ["C"] sample on pid 0 / tid 0 *)

val write : string -> event list -> unit
(** [write path events]: one trace file, events in list order. *)
