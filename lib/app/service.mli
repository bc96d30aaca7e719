(** The replicated service interface.

    A BFT protocol orders opaque operation strings; the service
    executes them deterministically and reports the virtual CPU time
    each execution costs (the paper's requests take 0.1 ms, or 1 ms for
    the heavy requests used in the Prime attack). Identical services
    fed the same operation sequence produce identical results and
    state digests — the property the replication protocol preserves. *)

type t = {
  execute : string -> string;
      (** [execute op] applies the operation and returns its result. *)
  exec_cost : string -> Dessim.Time.t;
      (** Virtual CPU time charged to the execution thread. *)
  state_digest : unit -> string;
      (** Digest of the current state, for checkpoints. *)
}

val noop : t
(** A service that ignores operations; zero-cost, constant digest. *)
