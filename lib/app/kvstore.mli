(** A replicated key-value store, the kind of service the paper's
    open-loop motivation cites (ZooKeeper, Boxwood). Operations are
    serialized with the wire codec; execution is deterministic, so all
    correct replicas stay in sync. *)

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of string * string * string
      (** [Cas (k, expected, v)] writes [v] only if [k] currently holds
          [expected]. *)

val encode_op : op -> string
val decode_op : string -> op option

type t

val create : ?exec_cost:Dessim.Time.t -> unit -> t

val service : t -> Service.t
(** The {!Service.t} view consumed by replication protocols; operations
    that fail to decode return ["error:decode"] and leave the state
    unchanged. *)

val apply : t -> op -> string
(** Direct (non-serialized) application, for tests. *)

val size : t -> int
(** Number of live keys. *)

val digest : t -> string
(** Order-insensitive digest over the live bindings. *)
