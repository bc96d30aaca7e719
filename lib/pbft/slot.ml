(* The one prepare/commit rule. The thresholds below are the only
   PREPARE/COMMIT quorum counts in the tree: Replica, Spinning and
   Prime all decide their slots here. *)

open Dessim
open Types
module Probe = Bftmetrics.Probe

type t = {
  f : int;
  mutable digest : string;
  prepares : Voteset.Tagged.t;
  commits : Voteset.Tagged.t;
  mutable sent_prepare : bool;
  mutable sent_commit : bool;
  mutable delivered : bool;
  mutable t_pp : Time.t;
  mutable t_prepared : Time.t;
}

let create ~n ~f =
  {
    f;
    digest = "";
    prepares = Voteset.Tagged.create ~n;
    commits = Voteset.Tagged.create ~n;
    sent_prepare = false;
    sent_commit = false;
    delivered = false;
    t_pp = Time.zero;
    t_prepared = Time.zero;
  }

let fix t digest ~now =
  t.digest <- digest;
  Voteset.Tagged.set_reference t.prepares digest;
  Voteset.Tagged.set_reference t.commits digest;
  t.t_pp <- now

let add_prepare t ~proposer ~from ~digest =
  from <> proposer && Voteset.Tagged.add t.prepares ~replica:from ~digest

let prepare t ~self ~proposer =
  t.sent_prepare <- true;
  ignore (add_prepare t ~proposer ~from:self ~digest:t.digest)

let commit t ~self ~now =
  if
    (not t.sent_commit) && t.sent_prepare
    && Voteset.Tagged.matching t.prepares >= 2 * t.f
  then begin
    t.sent_commit <- true;
    t.t_prepared <- now;
    ignore (Voteset.Tagged.add t.commits ~replica:self ~digest:t.digest);
    true
  end
  else false

let commit_quorum t = Voteset.Tagged.matching t.commits >= (2 * t.f) + 1

let add_commit t ~from ~digest =
  Voteset.Tagged.add t.commits ~replica:from ~digest && commit_quorum t

let committed t = t.sent_commit && commit_quorum t
let deliver t = t.delivered <- true

let restart t =
  Voteset.Tagged.clear t.prepares;
  Voteset.Tagged.clear t.commits;
  t.sent_prepare <- false;
  t.sent_commit <- false

(* Traced requests: parent span id + submission instant, keyed by
   request id; replaced at delivery by the commit span id until the
   hosting node collects it. Only sampled requests ever enter. *)
module Spans = struct
  type slot = t
  type t = (int * Time.t) Request_id_table.t

  let create () = Request_id_table.create 64

  let submit t ~span ~now ~delivered id =
    if span >= 0 && (not (delivered id)) && not (Request_id_table.mem t id)
    then Request_id_table.replace t id (span, now)

  (* Stamps are clamped monotonic: a backup can learn a request *from*
     the PRE-PREPARE, in which case submission follows t_pp. The chain
     batch-wait -> prepare -> commit keeps the tree linear. *)
  let record t probe ~node ~instance ~now (s : slot) fresh =
    List.iter
      (fun d ->
        match Request_id_table.find_opt t d.id with
        | None -> ()
        | Some (parent, t_sub) ->
          let t_pp = Time.max s.t_pp t_sub in
          let t_prep = Time.min now (Time.max s.t_prepared t_pp) in
          let b = Probe.span probe ~parent ~tag:Batch_wait ~node ~instance ~t0:t_sub ~t1:t_pp in
          let pr = Probe.span probe ~parent:b ~tag:Prepare ~node ~instance ~t0:t_pp ~t1:t_prep in
          let cm = Probe.span probe ~parent:pr ~tag:Commit ~node ~instance ~t0:t_prep ~t1:now in
          Request_id_table.replace t d.id (cm, now))
      fresh

  let take t ~id =
    match Request_id_table.find_opt t id with
    | None -> -1
    | Some (span, _) ->
      Request_id_table.remove t id;
      span
end
