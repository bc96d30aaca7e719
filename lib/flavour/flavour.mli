(** The six protocol flavours every driver builds: the harness's
    calibration and experiments, the chaos runner and explorer, the
    model checker's counterexamples, the CLI and the examples.

    The three RBFT flavours are one stack in three configurations,
    which {!rbft_cluster} builds. The other three are the baseline
    stacks the paper compares against. *)

type t =
  | Rbft
  | Rbft_udp
  | Rbft_concurrent
      (** disjoint-partition (bftrcc) ordering: each instance orders
          only its own clients and the per-instance streams merge
          deterministically *)
  | Aardvark
  | Spinning
  | Prime

val all : t list
(** Every flavour, in declaration order (the explorer samples from it,
    so the order is part of every sweep's seed stream). *)

val name : t -> string
(** Display name in tables: ["RBFT/UDP"]. *)

val slug : t -> string
(** Name in scenario files and on the command line: ["rbft-udp"]. *)

val of_slug : string -> t option

val rbft_cluster :
  ?probe:Bftmetrics.Probe.t ->
  ?seed:int64 ->
  ?tweak:(Rbft.Params.t -> Rbft.Params.t) ->
  ?clients:int ->
  ?payload_size:int ->
  f:int ->
  t ->
  Rbft.Cluster.t
(** {!Rbft.Cluster.create} for an RBFT flavour: [Rbft] is TCP and
    redundant ordering, [Rbft_udp] UDP and redundant ordering,
    [Rbft_concurrent] TCP and concurrent ordering. [tweak] (default:
    none) is applied to [Rbft.Params.default ~f] in that ordering
    mode.
    @raise Invalid_argument on [Aardvark], [Spinning] and [Prime]. *)
