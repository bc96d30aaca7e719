(** Online summary statistics (Welford's algorithm). *)

type t

val create : unit -> t
val add : t -> float -> unit
val count : t -> int
val mean : t -> float
(** 0 when empty. *)

val variance : t -> float
(** Sample variance; 0 with fewer than two observations. *)

val min : t -> float
(** [nan] when empty. *)

val max : t -> float
val sum : t -> float
val merge : t -> t -> t
(** Combine two summaries as if all observations were added to one. *)

val pp : Format.formatter -> t -> unit
