(** Global structured-event bus.

    Instrumented code guards every emission site with {!active} so the
    disabled path costs one load and one branch — no event record is
    allocated, no closure runs:

    {[
      if Bftaudit.Bus.active () then
        Bftaudit.Bus.emit { time; node; instance; kind = ... }
    ]}

    Sinks (the auditor, trace captures, the metrics bridge, ad-hoc
    listeners) subscribe and unsubscribe dynamically; events are
    delivered to every sink in subscription order. *)

type token
(** Identifies one subscription; pass it back to {!unsubscribe}. *)

val active : unit -> bool
(** True while at least one sink is subscribed.  Check this before
    allocating an event record on a hot path. *)

val subscribe : (Event.t -> unit) -> token
(** Add a sink; it receives every subsequent {!emit}. *)

val unsubscribe : token -> unit
(** Remove a sink; unknown tokens are ignored. *)

val emit : Event.t -> unit
(** Deliver an event to every sink, in subscription order.  Safe but
    pointless when {!active} is false. *)

val emit_at :
  Dessim.Time.t -> node:int -> instance:int -> Event.kind -> unit
(** Convenience wrapper building the {!Event.t} record, for sites that
    already checked {!active}. *)
