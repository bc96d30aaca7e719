(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic component of the simulation draws from its own
    [Rng.t] stream obtained by {!split}, so adding a component never
    perturbs the random choices of the others. A generator is two
    words, and a draw of {!int}, {!bool} or {!bytes} allocates
    nothing beyond what it returns. *)

type t

val create : int64 -> t
(** [create seed] makes a fresh generator from a 64-bit seed. *)

val split : t -> t
(** [split t] derives an independent stream from [t], advancing [t]. *)

val int64 : t -> int64
(** Next raw 64-bit output. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)]. Requires [bound > 0]. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** [exponential t ~mean] draws from an exponential distribution; used
    for Poisson inter-arrival times in open-loop clients. *)

val uniform_range : t -> float -> float -> float
(** [uniform_range t lo hi] is uniform in [\[lo, hi)]. *)

val pick : t -> 'a array -> 'a
(** [pick t arr] is a uniformly random element. Requires a non-empty
    array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val bytes : t -> int -> bytes
(** [bytes t n] is [n] pseudo-random bytes. *)
