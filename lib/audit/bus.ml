(** Global structured-event bus.

    Instrumented code guards every emission site with {!active} so the
    disabled path costs one load and one branch — no event record is
    allocated, no closure runs:

    {[
      if Bftaudit.Bus.active () then
        Bftaudit.Bus.emit { time; node; instance; kind = ... }
    ]}

    Sinks (the auditor, trace captures, ad-hoc listeners) subscribe
    and unsubscribe dynamically; events are delivered to every sink in
    subscription order. *)

type token = int

let sinks : (token * (Event.t -> unit)) list ref = ref []
let next_token = ref 0

(* Fast-path flag read by [active]; kept in sync with [sinks]. *)
let enabled = ref false

let active () = !enabled

let emit ev = List.iter (fun (_, f) -> f ev) !sinks

let sync () = enabled := !sinks <> []

let subscribe f =
  incr next_token;
  let tok = !next_token in
  sinks := !sinks @ [ (tok, f) ];
  sync ();
  tok

let unsubscribe tok =
  sinks := List.filter (fun (t, _) -> t <> tok) !sinks;
  sync ()

(** Convenience for sites that already checked {!active}. *)
let emit_at time ~node ~instance kind =
  emit { Event.time; node; instance; kind }
