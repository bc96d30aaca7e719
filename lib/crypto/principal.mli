(** Identities in the system: nodes (the 3f+1 physical machines) and
    clients. Every key, MAC and signature is attached to a principal. *)

type t =
  | Node of int  (** Node [i], [0 <= i < n]. *)
  | Client of int  (** Client [c]. *)

val compare : t -> t -> int
val equal : t -> t -> bool
val hash : t -> int

val node : int -> t
val client : int -> t

val index : t -> int
(** The integer identity within its class. *)

val pp : Format.formatter -> t -> unit
val to_string : t -> string

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
