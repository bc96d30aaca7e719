(** Online safety auditor.

    Subscribes to a run's {!Bftmetrics.Probe} and checks global safety invariants while a
    simulation runs, across every node and protocol instance:

    - {b agreement}: no two correct nodes order different batch
      digests at the same (instance, sequence);
    - {b no double execution}: a correct node never executes the same
      (client, request-id) twice;
    - {b prepare quorum}: a batch ordered by a correct node was backed
      by at least 2f+1 distinct replicas sending a matching
      pre-prepare or prepare (skipped for protocols that emit no
      prepare events, e.g. Prime's pre-ordering phase);
    - {b checkpoint consistency}: correct nodes never stabilise
      different state digests at the same checkpoint sequence;
    - {b instance-change quorum}: a correct node performs a
      (non-recovery) protocol instance change only after 2f+1 distinct
      nodes voted for it.

    Nodes under adversarial control are excluded from the checks'
    conclusions (their votes still count, as they do in the real
    protocol).  Attack plans declare them on the run's probe
    ({!Bftmetrics.Probe.declare_faulty}); violations raise {!Violation} with a readable
    report that includes the most recent bus events for context. *)

open Dessim

exception Violation of string

module Event = Bftmetrics.Event
module Probe = Bftmetrics.Probe

type violation = Probe.violation = { time : Time.t; invariant : string; detail : string }

(* Attack installers (lib/core/attacks.ml, harness closures) run after
   the auditor is attached, so Byzantine node ids are declared on the
   probe, which every auditor attached to it consults. *)
let reset_declared () = Probe.reset_declared Probe.default

(* Per-(node, client) execution log. Closed-loop clients execute in
   rid order so [contig] absorbs almost everything; the [extras] table
   only holds out-of-order rids transiently. *)
type client_log = { mutable contig : int; extras : (int, unit) Hashtbl.t }

type t = {
  n : int;
  f : int;
  quorum : int;
  raise_on_violation : bool;
  mutable violations : violation list; (* newest first *)
  recent : Event.t Bftmetrics.Ring.t; (* context ring for reports *)
  mutable checked : int;
  (* (instance, seq) -> node -> digests voted via pre-prepare/prepare *)
  prepares : (int * int, (int, string list) Hashtbl.t) Hashtbl.t;
  (* (instance, seq) -> first correct node's ordered digest *)
  ordered : (int * int, int * string) Hashtbl.t;
  (* (instance, seq) -> first correct node's stable checkpoint digest *)
  stable : (int * int, int * string) Hashtbl.t;
  executed : (int * int, client_log) Hashtbl.t; (* (node, client) *)
  ic_votes : (int, int) Hashtbl.t; (* node -> max cpi voted *)
  probe : Probe.t;
  mutable detach : unit -> unit;
}

let is_correct t node = node >= 0 && not (Probe.is_declared t.probe node)

let report t (v : violation) =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "audit violation [%s] at %s: %s\n" v.invariant
       (Time.to_string v.time) v.detail);
  Buffer.add_string buf
    (Printf.sprintf "  (n=%d f=%d quorum=%d, %d events checked)\n" t.n t.f
       t.quorum t.checked);
  Buffer.add_string buf "  recent events:\n";
  List.iter
    (fun e -> Buffer.add_string buf ("    " ^ Event.to_string e ^ "\n"))
    (Bftmetrics.Ring.to_list t.recent);
  Buffer.contents buf

let violate t ~time ~invariant fmt =
  Printf.ksprintf
    (fun detail ->
      let v = { time; invariant; detail } in
      t.violations <- v :: t.violations;
      Probe.violation t.probe v;
      if t.raise_on_violation then raise (Violation (report t v)))
    fmt

let note_prepare t ~node ~instance ~seq ~digest =
  let key = (instance, seq) in
  let votes =
    match Hashtbl.find_opt t.prepares key with
    | Some v -> v
    | None ->
      let v = Hashtbl.create 8 in
      Hashtbl.replace t.prepares key v;
      v
  in
  let ds = Option.value ~default:[] (Hashtbl.find_opt votes node) in
  if not (List.mem digest ds) then Hashtbl.replace votes node (digest :: ds)

let check_prepare_quorum t (ev : Event.t) ~seq ~digest =
  match Hashtbl.find_opt t.prepares (ev.instance, seq) with
  | None -> () (* protocol emits no prepare events for this instance *)
  | Some votes ->
    let matching =
      Hashtbl.fold
        (fun _node ds acc -> if List.mem digest ds then acc + 1 else acc)
        votes 0
    in
    if matching < t.quorum then
      violate t ~time:ev.time ~invariant:"prepare-quorum"
        "node %d ordered instance=%d seq=%d digest=%s with only %d matching \
         prepare(s), quorum is %d"
        ev.node ev.instance seq (Event.short_digest digest) matching t.quorum

let check_agreement t (ev : Event.t) ~seq ~digest =
  let key = (ev.instance, seq) in
  match Hashtbl.find_opt t.ordered key with
  | None -> Hashtbl.replace t.ordered key (ev.node, digest)
  | Some (first, d) ->
    if d <> digest then
      violate t ~time:ev.time ~invariant:"agreement"
        "instance=%d seq=%d ordered as %s by node %d but as %s by node %d"
        ev.instance seq (Event.short_digest d) first
        (Event.short_digest digest) ev.node

let check_execution t (ev : Event.t) ~client ~rid =
  let key = (ev.node, client) in
  let log =
    match Hashtbl.find_opt t.executed key with
    | Some l -> l
    | None ->
      let l = { contig = -1; extras = Hashtbl.create 4 } in
      Hashtbl.replace t.executed key l;
      l
  in
  if rid <= log.contig || Hashtbl.mem log.extras rid then
    violate t ~time:ev.time ~invariant:"double-execution"
      "node %d executed request c%d#%d twice" ev.node client rid
  else if rid = log.contig + 1 then begin
    log.contig <- rid;
    while Hashtbl.mem log.extras (log.contig + 1) do
      Hashtbl.remove log.extras (log.contig + 1);
      log.contig <- log.contig + 1
    done
  end
  else Hashtbl.replace log.extras rid ()

let check_checkpoint t (ev : Event.t) ~seq ~digest =
  let key = (ev.instance, seq) in
  match Hashtbl.find_opt t.stable key with
  | None -> Hashtbl.replace t.stable key (ev.node, digest)
  | Some (first, d) ->
    if d <> digest then
      violate t ~time:ev.time ~invariant:"checkpoint-consistency"
        "instance=%d seq=%d stabilised as %s by node %d but as %s by node %d"
        ev.instance seq (Event.short_digest d) first
        (Event.short_digest digest) ev.node

let check_instance_change t (ev : Event.t) ~cpi =
  let votes =
    Hashtbl.fold
      (fun _node max_cpi acc -> if max_cpi >= cpi then acc + 1 else acc)
      t.ic_votes 0
  in
  if votes < t.quorum then
    violate t ~time:ev.time ~invariant:"instance-change-quorum"
      "node %d changed to cpi=%d with only %d vote(s), quorum is %d" ev.node
      cpi votes t.quorum

let on_event t (ev : Event.t) =
  Bftmetrics.Ring.push t.recent ev;
  t.checked <- t.checked + 1;
  match ev.kind with
  | Pre_prepare_sent { seq; digest; _ } | Prepare_sent { seq; digest; _ } ->
    note_prepare t ~node:ev.node ~instance:ev.instance ~seq ~digest
  | Ordered { seq; digest; _ } ->
    if is_correct t ev.node then begin
      check_agreement t ev ~seq ~digest;
      check_prepare_quorum t ev ~seq ~digest
    end
  | Executed { client; rid; _ } ->
    if is_correct t ev.node then check_execution t ev ~client ~rid
  | Checkpoint_stable { seq; digest } ->
    if is_correct t ev.node then check_checkpoint t ev ~seq ~digest
  | Instance_change_vote { cpi } ->
    let prev = Option.value ~default:(-1) (Hashtbl.find_opt t.ic_votes ev.node) in
    if cpi > prev then Hashtbl.replace t.ic_votes ev.node cpi
  | Instance_changed { cpi; recovery } ->
    (* Recovery-protocol rotations are timer-driven, not vote-driven. *)
    if (not recovery) && is_correct t ev.node then
      check_instance_change t ev ~cpi
  | _ -> ()

(** Create an auditor and subscribe it to the probe's events. *)
let attach ?(probe = Probe.default) ?(raise_on_violation = true) ~n ~f () =
  let t =
    {
      n;
      f;
      quorum = (2 * f) + 1;
      raise_on_violation;
      violations = [];
      recent = Bftmetrics.Ring.create 16;
      checked = 0;
      prepares = Hashtbl.create 4096;
      ordered = Hashtbl.create 4096;
      stable = Hashtbl.create 256;
      executed = Hashtbl.create 256;
      ic_votes = Hashtbl.create 8;
      probe;
      detach = ignore;
    }
  in
  t.detach <- Probe.subscribe probe (on_event t);
  t

let detach t =
  t.detach ();
  t.detach <- ignore

let events_checked t = t.checked
let violations t = List.rev t.violations

(* Canonical digest of *which* invariants were violated, ignoring
   timestamps and per-run details: a counterexample schedule and its
   shrunk replay hit "the same bug" exactly when these digests agree. *)
let invariant_digest vs =
  List.map (fun (v : violation) -> v.invariant) vs
  |> List.sort_uniq compare
  |> String.concat "\n"
  |> Bftcrypto.Sha256.digest_string
  |> Bftcrypto.Sha256.to_hex

let pp_violation ppf (v : violation) =
  Format.fprintf ppf "[%s] at %s: %s" v.invariant (Time.to_string v.time)
    v.detail
