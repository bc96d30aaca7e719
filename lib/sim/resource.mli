(** A single-server FIFO resource.

    Models anything that serves work sequentially at a known cost: a
    CPU thread pinned to a core (the paper's Verification, Propagation,
    Dispatch & Monitoring and Execution modules), a replica process, or
    the serialization stage of a NIC.

    Jobs submitted to a resource complete in submission order; each job
    occupies the server for its [cost] of virtual time. A job may
    {!charge} extra time while it runs (e.g. a handler that generates
    MACs for the messages it sends), pushing back every job queued
    behind it.

    Submitting and serving a job allocate nothing: waiting jobs sit in
    a growable FIFO ring of parallel cost, span and continuation arrays
    (allocated on the first job that has to wait), every job completes
    through the one engine event the resource made for its first job
    and re-arms ({!Engine.rearm}), and a slot's continuation is cleared
    as the job leaves the ring, so a finished job is not kept
    reachable. Creating a resource allocates only its record. *)

type t

val create : Engine.t -> name:string -> t

val name : t -> string

val speed : t -> float

val set_speed : t -> float -> unit
(** [set_speed t s] makes the server run at [s] times its nominal
    speed: every cost accepted afterwards (including {!charge}) is
    scaled by [1/s]. Defaults to 1.0; values [<= 0] are clamped to a
    small positive epsilon. The chaos engine uses this to model CPU
    skew on a faulty or overloaded machine. Jobs already started keep
    the scaling in force when they were dequeued. *)

val submit : ?span:int -> t -> cost:Time.t -> (unit -> unit) -> unit
(** [submit t ~cost f] enqueues a job. [f] runs when the job
    completes, i.e. at [max now (end of previous job) + cost].

    [?span] (default [-1], meaning "untraced") tags the job with a span
    id; when a tagged job starts service, the engine's job-start hook
    ({!Engine.create}) receives the id and the virtual interval the job
    occupies the server, after speed scaling. Untagged jobs never touch
    the hook, so the traced-off overhead is one integer compare. *)

val charge : t -> Time.t -> unit
(** [charge t extra] extends the busy period of the job currently at
    the head of the resource. Intended to be called from within a job's
    completion handler to account for work performed by the handler
    itself. *)

val busy_until : t -> Time.t
(** The virtual instant at which the resource becomes idle given the
    work accepted so far. *)

val backlog : t -> Time.t
(** [backlog t] is [max 0 (busy_until - now)] plus the total cost of
    jobs still queued: how far behind the resource currently is. Used
    by adversaries, load probes and the adaptive batcher — O(1) via a
    running sum maintained on enqueue/dequeue. *)

val backlog_fold : t -> Time.t
(** O(n) reference implementation of {!backlog} that folds over the
    queue; exists so a property test can pin the incremental sum to
    the fold. Not for hot paths. *)

val depth : t -> int
(** Number of jobs waiting in the queue (excluding the one in
    service). The queue-depth gauge and the adaptive batcher's probes
    read this. *)

val busy_total : t -> Time.t
(** Cumulative virtual time spent serving jobs; divide by elapsed time
    for utilization. *)

val jobs_served : t -> int
