(** In-memory trace capture with a chained per-run SHA-256 digest.

    The digest is folded over each event's canonical JSON line as it
    arrives, so two runs of the same binary with the same seed produce
    byte-identical digests — the determinism regression check — while
    the full event list supports JSONL and Chrome [trace_event]
    export after the run. *)

type t

val attach : Bftmetrics.Probe.t -> t
(** A capture subscribed to the probe's events. *)

val detach : t -> unit
(** Unsubscribe; idempotent. *)

val count : t -> int
val events : t -> Bftmetrics.Event.t list
(** Captured events, oldest first. *)

val digest : t -> string
(** Hex SHA-256 chained over every event's canonical JSON. *)

val write_jsonl : t -> string -> unit
(** One canonical JSON object per line, in event order. *)

val chrome_event : Bftmetrics.Event.t -> Bftmetrics.Chrome.event
(** One event as an instant on lane pid = node, tid = instance. *)

val write_chrome_trace : t -> string -> unit
(** Chrome about:tracing / Perfetto JSON; lanes are grouped with
    pid = node and tid = protocol instance. *)
