(** Wall-clock self-profiler: coarse per-subsystem time attribution
    (a label -> accumulated seconds table). Wrap subsystem-sized work —
    experiment groups, export passes — not hot paths. *)

type t

val create : unit -> t

val time : t -> string -> (unit -> 'a) -> 'a
(** [time label f] runs [f] and charges its wall-clock duration to
    [label] (exception-safe). *)

val add : t -> string -> float -> unit
(** Charge [seconds] to [label] directly (one call). *)

val report : t -> (string * float * int) list
(** [(label, seconds, calls)], sorted by descending seconds. *)

val total : t -> float

val reset : t -> unit

val print : t -> out_channel -> unit
(** Aligned table with percentages; silent when nothing was timed. *)

val json : t -> string
(** JSON array of [{label, seconds, calls}]. *)
