(** Typed structured events for the audit bus.

    Every event carries the emitting node, the protocol instance it
    belongs to (RBFT runs f+1 parallel instances; single-instance
    protocols use instance 0; [-1] means "not instance-scoped"), and
    the virtual timestamp.  Digests are raw SHA-256 bytes;
    they are hex-encoded only at serialisation time. *)

open Dessim

type kind =
  | Request_received of { client : int; rid : int; size : int }
  | Request_propagated of { client : int; rid : int }
  | Request_dispatched of { client : int; rid : int }
  | Pre_prepare_sent of { view : int; seq : int; count : int; digest : string }
  | Prepare_sent of { view : int; seq : int; digest : string }
  | Commit_sent of { view : int; seq : int; digest : string }
  | Ordered of { seq : int; count : int; digest : string }
  | Executed of { client : int; rid : int; digest : string }
  | Checkpoint_sent of { seq : int; digest : string }
  | Checkpoint_stable of { seq : int; digest : string }
  | View_change_sent of { view : int }
  | View_entered of { view : int; primary : int }
  | Accusation of { seq : int }
  | Instance_change_vote of { cpi : int }
  | Instance_changed of { cpi : int; recovery : bool }
  | Monitor_verdict of {
      master_rate : float;
      backup_rate : float;
      suspicious : bool;
    }
  | Lambda_exceeded of { client : int; latency : Time.t }
  | Omega_exceeded of { client : int }
  | Seq_stall of { waiting_on : int; age : Time.t; pending : int }
      (** concurrent (bftrcc) ordering: head-of-line state of the merge
          sequencer, sampled every monitoring period. [waiting_on] is
          the instance whose next batch the round-robin merge needs
          ([-1] when not stalled), [age] how long it has been missing,
          [pending] committed batches queued behind it. *)
  | Degrade_changed of { instance : int; active : bool }
      (** concurrent ordering: the degrade path for [instance]'s
          partition toggled — [active] means every primary now also
          proposes that partition's requests (classic redundant
          fallback) until the new master is stable. *)
  | Nic_closed of { peer : int; until : Time.t }
  | Blacklisted of { client : int }
  | Net_dropped of { src : string; reason : string }
  | Log of { level : string; component : string; message : string }

type t = { time : Time.t; node : int; instance : int; kind : kind }

let kind_name = function
  | Request_received _ -> "request-received"
  | Request_propagated _ -> "request-propagated"
  | Request_dispatched _ -> "request-dispatched"
  | Pre_prepare_sent _ -> "pre-prepare"
  | Prepare_sent _ -> "prepare"
  | Commit_sent _ -> "commit"
  | Ordered _ -> "ordered"
  | Executed _ -> "executed"
  | Checkpoint_sent _ -> "checkpoint"
  | Checkpoint_stable _ -> "checkpoint-stable"
  | View_change_sent _ -> "view-change"
  | View_entered _ -> "view-entered"
  | Accusation _ -> "accusation"
  | Instance_change_vote _ -> "instance-change-vote"
  | Instance_changed _ -> "instance-changed"
  | Monitor_verdict _ -> "monitor-verdict"
  | Lambda_exceeded _ -> "lambda-exceeded"
  | Omega_exceeded _ -> "omega-exceeded"
  | Seq_stall _ -> "seq-stall"
  | Degrade_changed _ -> "degrade"
  | Nic_closed _ -> "nic-closed"
  | Blacklisted _ -> "blacklisted"
  | Net_dropped _ -> "net-dropped"
  | Log _ -> "log"

let hex s =
  let buf = Buffer.create (2 * String.length s) in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) s;
  Buffer.contents buf

(* Digests are 32 raw bytes; eight hex chars are plenty to tell
   batches apart in human-facing output. *)
let short_digest s =
  let h = hex s in
  if String.length h > 8 then String.sub h 0 8 else h

let pp_kind ppf = function
  | Request_received { client; rid; size } ->
    Format.fprintf ppf "request-received c%d#%d (%dB)" client rid size
  | Request_propagated { client; rid } ->
    Format.fprintf ppf "request-propagated c%d#%d" client rid
  | Request_dispatched { client; rid } ->
    Format.fprintf ppf "request-dispatched c%d#%d" client rid
  | Pre_prepare_sent { view; seq; count; digest } ->
    Format.fprintf ppf "pre-prepare v%d seq=%d count=%d %s" view seq count
      (short_digest digest)
  | Prepare_sent { view; seq; digest } ->
    Format.fprintf ppf "prepare v%d seq=%d %s" view seq (short_digest digest)
  | Commit_sent { view; seq; digest } ->
    Format.fprintf ppf "commit v%d seq=%d %s" view seq (short_digest digest)
  | Ordered { seq; count; digest } ->
    Format.fprintf ppf "ordered seq=%d count=%d %s" seq count
      (short_digest digest)
  | Executed { client; rid; digest } ->
    Format.fprintf ppf "executed c%d#%d %s" client rid (short_digest digest)
  | Checkpoint_sent { seq; digest } ->
    Format.fprintf ppf "checkpoint seq=%d %s" seq (short_digest digest)
  | Checkpoint_stable { seq; digest } ->
    Format.fprintf ppf "checkpoint-stable seq=%d %s" seq (short_digest digest)
  | View_change_sent { view } -> Format.fprintf ppf "view-change to v%d" view
  | View_entered { view; primary } ->
    Format.fprintf ppf "view-entered v%d primary=%d" view primary
  | Accusation { seq } -> Format.fprintf ppf "accusation seq=%d" seq
  | Instance_change_vote { cpi } ->
    Format.fprintf ppf "instance-change-vote cpi=%d" cpi
  | Instance_changed { cpi; recovery } ->
    Format.fprintf ppf "instance-changed cpi=%d%s" cpi
      (if recovery then " (recovery)" else "")
  | Monitor_verdict { master_rate; backup_rate; suspicious } ->
    Format.fprintf ppf "monitor-verdict master=%.1f backup=%.1f%s" master_rate
      backup_rate
      (if suspicious then " SUSPICIOUS" else "")
  | Lambda_exceeded { client; latency } ->
    Format.fprintf ppf "lambda-exceeded c%d latency=%a" client Time.pp latency
  | Omega_exceeded { client } -> Format.fprintf ppf "omega-exceeded c%d" client
  | Seq_stall { waiting_on; age; pending } ->
    if waiting_on < 0 then Format.fprintf ppf "seq-stall none"
    else
      Format.fprintf ppf "seq-stall waiting-on=i%d age=%a pending=%d"
        waiting_on Time.pp age pending
  | Degrade_changed { instance; active } ->
    Format.fprintf ppf "degrade i%d %s" instance
      (if active then "active" else "cleared")
  | Nic_closed { peer; until } ->
    Format.fprintf ppf "nic-closed peer=%d until=%a" peer Time.pp until
  | Blacklisted { client } -> Format.fprintf ppf "blacklisted c%d" client
  | Net_dropped { src; reason } ->
    Format.fprintf ppf "net-dropped from %s (%s)" src reason
  | Log { level; component; message } ->
    Format.fprintf ppf "log[%s] %s: %s" level component message

let pp ppf t =
  Format.fprintf ppf "[%a] n%d/i%d %a" Time.pp t.time t.node t.instance pp_kind
    t.kind

let to_string t = Format.asprintf "%a" pp t

(* --- JSON serialisation ------------------------------------------- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | '\r' -> Buffer.add_string buf "\\r"
      | c when Char.code c < 0x20 ->
        Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* Event payload as JSON object fields, without the enclosing braces,
   so both the JSONL and the Chrome exporters can reuse it. *)
let args_json kind =
  match kind with
  | Request_received { client; rid; size } ->
    Printf.sprintf {|"client":%d,"rid":%d,"size":%d|} client rid size
  | Request_propagated { client; rid } | Request_dispatched { client; rid } ->
    Printf.sprintf {|"client":%d,"rid":%d|} client rid
  | Pre_prepare_sent { view; seq; count; digest } ->
    Printf.sprintf {|"view":%d,"seq":%d,"count":%d,"digest":"%s"|} view seq
      count (hex digest)
  | Prepare_sent { view; seq; digest } | Commit_sent { view; seq; digest } ->
    Printf.sprintf {|"view":%d,"seq":%d,"digest":"%s"|} view seq (hex digest)
  | Ordered { seq; count; digest } ->
    Printf.sprintf {|"seq":%d,"count":%d,"digest":"%s"|} seq count (hex digest)
  | Executed { client; rid; digest } ->
    Printf.sprintf {|"client":%d,"rid":%d,"digest":"%s"|} client rid
      (hex digest)
  | Checkpoint_sent { seq; digest } | Checkpoint_stable { seq; digest } ->
    Printf.sprintf {|"seq":%d,"digest":"%s"|} seq (hex digest)
  | View_change_sent { view } -> Printf.sprintf {|"view":%d|} view
  | View_entered { view; primary } ->
    Printf.sprintf {|"view":%d,"primary":%d|} view primary
  | Accusation { seq } -> Printf.sprintf {|"seq":%d|} seq
  | Instance_change_vote { cpi } -> Printf.sprintf {|"cpi":%d|} cpi
  | Instance_changed { cpi; recovery } ->
    Printf.sprintf {|"cpi":%d,"recovery":%b|} cpi recovery
  | Monitor_verdict { master_rate; backup_rate; suspicious } ->
    Printf.sprintf {|"master_rate":%.6f,"backup_rate":%.6f,"suspicious":%b|}
      master_rate backup_rate suspicious
  | Lambda_exceeded { client; latency } ->
    Printf.sprintf {|"client":%d,"latency_ns":%d|} client (latency : Time.t)
  | Omega_exceeded { client } -> Printf.sprintf {|"client":%d|} client
  | Seq_stall { waiting_on; age; pending } ->
    Printf.sprintf {|"waiting_on":%d,"age_ns":%d,"pending":%d|} waiting_on
      (age : Time.t) pending
  | Degrade_changed { instance; active } ->
    Printf.sprintf {|"instance":%d,"active":%b|} instance active
  | Nic_closed { peer; until } ->
    Printf.sprintf {|"peer":%d,"until_ns":%d|} peer (until : Time.t)
  | Blacklisted { client } -> Printf.sprintf {|"client":%d|} client
  | Net_dropped { src; reason } ->
    Printf.sprintf {|"src":"%s","reason":"%s"|} (json_escape src)
      (json_escape reason)
  | Log { level; component; message } ->
    Printf.sprintf {|"level":"%s","component":"%s","message":"%s"|}
      (json_escape level) (json_escape component) (json_escape message)

(* Canonical one-line serialisation: used verbatim for JSONL export
   and as the input of the chained per-run trace digest, so it must
   stay deterministic for a given event. *)
let to_json t =
  Printf.sprintf {|{"ts":%d,"node":%d,"instance":%d,"kind":"%s",%s}|}
    (t.time : Time.t) t.node t.instance (kind_name t.kind) (args_json t.kind)
