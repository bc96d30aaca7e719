(** Incident forensics: reconstruct the timeline of a bundle,
    attribute the cause, and export human / JSON / Chrome views.

    Attribution is evidence-scored, protocol-aware but bundle-local —
    everything below reads only what the bundle contains:

    - {e flooding}: [nic-closed] events name the peer whose junk
      crossed the flood threshold, and [net-dropped]/[blacklisted]
      corroborate; the peer with the most closures is the culprit
      (this is the worst1 signature);
    - {e master under-performance}: [monitor-verdict] events with
      [suspicious] plus an [instance-changed] event identify the
      demoted master instance; the culprit node is that instance's
      primary (recorded in the bundle config at attach time);
    - {e stall / SLO}: the span rings' critical-path breakdown names
      the dominant stage; per-channel message/byte/drop deltas between
      the first and last metrics snapshots localise network-side
      causes. *)

open Dessim
module Jmini = Bftmetrics.Jmini

type verdict = {
  cause : string;  (** one-line classification *)
  culprit_node : int option;
  culprit_instance : int option;
  confidence : string;  (** "high" | "medium" | "low" *)
  evidence : string list;
}

(* --- evidence extraction ------------------------------------------- *)

let count_by f events =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun ev ->
      match f ev with
      | Some key ->
        Hashtbl.replace tbl key (1 + Option.value ~default:0 (Hashtbl.find_opt tbl key))
      | None -> ())
    events;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (ka, a) (kb, b) -> if a <> b then compare b a else compare ka kb)

let nic_closures (l : Bundle.loaded) =
  count_by
    (fun (e : Bundle.ev) ->
      if e.Bundle.e_kind = "nic-closed" then Jmini.get_int "peer" e.Bundle.e_args
      else None)
    l.Bundle.l_events

let suspicious_verdicts (l : Bundle.loaded) =
  List.filter
    (fun (e : Bundle.ev) ->
      e.Bundle.e_kind = "monitor-verdict"
      && Jmini.mem "suspicious" e.Bundle.e_args = Some (Jmini.Bool true))
    l.Bundle.l_events

let instance_changes (l : Bundle.loaded) =
  List.filter (fun (e : Bundle.ev) -> e.Bundle.e_kind = "instance-changed")
    l.Bundle.l_events

(* Per-channel (messages, bytes, drops) delta between the first and
   last metrics snapshots in the bundle. *)
let channel_deltas (l : Bundle.loaded) =
  match (l.Bundle.l_snapshots, List.rev l.Bundle.l_snapshots) with
  | (t0, first) :: _, (t1, last) :: _ when t0 < t1 ->
    let table snap =
      let tbl = Hashtbl.create 16 in
      List.iter
        (fun (name, labels, v) ->
          match List.assoc_opt "channel" labels with
          | Some chan -> Hashtbl.replace tbl (name, chan) v
          | None -> ())
        (Bundle.samples_of_snapshot snap);
      tbl
    in
    let t_first = table first and t_last = table last in
    let delta name chan =
      Option.value ~default:0.0 (Hashtbl.find_opt t_last (name, chan))
      -. Option.value ~default:0.0 (Hashtbl.find_opt t_first (name, chan))
    in
    let channels =
      Hashtbl.fold (fun (_, chan) _ acc ->
          if List.mem chan acc then acc else chan :: acc)
        t_last []
      |> List.sort compare
    in
    Some
      ( Time.sub t1 t0,
        List.map
          (fun chan ->
            ( chan,
              delta "bft_net_messages_total" chan,
              delta "bft_net_bytes_total" chan,
              delta "bft_net_dropped_total" chan ))
          channels )
  | _ -> None

let critical_path (l : Bundle.loaded) =
  if Array.length l.Bundle.l_spans = 0 then None
  else
    let s = Bftspan.Analyze.summarize l.Bundle.l_spans in
    if s.Bftspan.Analyze.committed = 0 then None else Some s

(* --- attribution --------------------------------------------------- *)

let attribute (l : Bundle.loaded) =
  let evidence = ref [] in
  let note fmt = Printf.ksprintf (fun s -> evidence := s :: !evidence) fmt in
  let closures = nic_closures l in
  let suspicious = suspicious_verdicts l in
  let ics = instance_changes l in
  List.iter
    (fun (peer, n) -> note "nic-closed x%d against peer node %d" n peer)
    closures;
  (match suspicious with
  | [] -> ()
  | vs ->
    let nodes = count_by (fun (e : Bundle.ev) -> Some e.Bundle.e_node) vs in
    note "%d suspicious monitor verdicts (nodes: %s)" (List.length vs)
      (String.concat "," (List.map (fun (n, _) -> string_of_int n) nodes)));
  List.iter
    (fun (e : Bundle.ev) ->
      note "instance-changed on instance %d at %s (cpi=%d)" e.Bundle.e_instance
        (Time.to_string e.Bundle.e_time)
        (Option.value ~default:(-1) (Jmini.get_int "cpi" e.Bundle.e_args)))
    ics;
  (match critical_path l with
  | Some s ->
    (match s.Bftspan.Analyze.stages with
    | top :: _ ->
      note "dominant critical-path stage: %s (%.1f%% of end-to-end latency)"
        (Bftspan.Tag.name top.Bftspan.Analyze.tag)
        (100.0 *. top.Bftspan.Analyze.share)
    | [] -> ())
  | None -> ());
  let finish cause culprit_node culprit_instance confidence =
    { cause; culprit_node; culprit_instance; confidence;
      evidence = List.rev !evidence }
  in
  match closures with
  | (peer, _) :: _ ->
    (* Flooding: NICs only close against peers that exceeded the
       invalid-traffic threshold — direct evidence of the attacker. *)
    note "verdict: node %d flooded its peers until their NICs closed" peer;
    finish "flooding" (Some peer) None "high"
  | [] -> (
    match ics with
    | ic :: _ ->
      (* The demoted instance is in the event; its primary at the time
         of the incident is recorded by the attach-time config. *)
      let primary =
        Option.bind
          (List.assoc_opt "master_primary" l.Bundle.l_config)
          int_of_string_opt
      in
      (match primary with
      | Some p -> note "verdict: master instance %d (primary node %d) under-performed" ic.Bundle.e_instance p
      | None -> note "verdict: master instance %d under-performed" ic.Bundle.e_instance);
      finish "master-underperformance" primary (Some ic.Bundle.e_instance)
        (if suspicious <> [] then "high" else "medium")
    | [] ->
      if suspicious <> [] then begin
        let inst =
          match suspicious with
          | (e : Bundle.ev) :: _ ->
            Jmini.get_int "instance" e.Bundle.e_args
          | [] -> None
        in
        note "verdict: master skirting the Δ envelope (no instance change yet)";
        finish "delta-envelope" None inst "medium"
      end
      else
        let cause, conf =
          match critical_path l with
          | Some s -> (
            match s.Bftspan.Analyze.stages with
            | top :: _ ->
              ( Printf.sprintf "latency-dominated-by-%s"
                  (Bftspan.Tag.name top.Bftspan.Analyze.tag),
                "medium" )
            | [] -> ("unattributed", "low"))
          | None -> ("unattributed", "low")
        in
        finish cause None None conf)

(* --- reports ------------------------------------------------------- *)

let timeline_tail ?(limit = 30) (l : Bundle.loaded) =
  let n = List.length l.Bundle.l_events in
  let skipped = max 0 (n - limit) in
  let tail = if skipped = 0 then l.Bundle.l_events
    else List.filteri (fun i _ -> i >= skipped) l.Bundle.l_events
  in
  (skipped, tail)

let format_event (e : Bundle.ev) =
  let args =
    match e.Bundle.e_args with
    | Jmini.Obj kvs ->
      kvs
      |> List.filter (fun (k, _) ->
             not (List.mem k [ "ts"; "node"; "instance"; "kind" ]))
      |> List.map (fun (k, v) ->
             let value =
               match v with
               | Jmini.Str s ->
                 if String.length s > 8 then String.sub s 0 8 else s
               | Jmini.Num f ->
                 if Float.is_integer f then Printf.sprintf "%.0f" f
                 else Printf.sprintf "%.3f" f
               | Jmini.Bool b -> string_of_bool b
               | _ -> "?"
             in
             k ^ "=" ^ value)
      |> String.concat " "
    | _ -> ""
  in
  Printf.sprintf "[%s] n%d/i%d %-22s %s"
    (Time.to_string e.Bundle.e_time)
    e.Bundle.e_node e.Bundle.e_instance e.Bundle.e_kind args

let report (l : Bundle.loaded) =
  let v = attribute l in
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  line "incident bundle: %s" l.Bundle.l_dir;
  line "  trigger : %s" l.Bundle.l_trigger;
  line "  fired   : %s" (Time.to_string l.Bundle.l_fired);
  line "  reason  : %s" l.Bundle.l_reason;
  line "  seed    : %s" l.Bundle.l_seed;
  line "  digest  : %s" l.Bundle.l_digest;
  if l.Bundle.l_config <> [] then
    line "  config  : %s"
      (String.concat " "
         (List.map (fun (k, x) -> k ^ "=" ^ x) l.Bundle.l_config));
  if l.Bundle.l_scenario <> None then line "  scenario: scenario.scn (chaos run)";
  line "";
  line "verdict: %s (confidence %s)" v.cause v.confidence;
  (match v.culprit_node with
  | Some n -> line "  culprit node     : %d" n
  | None -> line "  culprit node     : unattributed");
  (match v.culprit_instance with
  | Some i -> line "  culprit instance : %d" i
  | None -> ());
  List.iter (fun e -> line "  - %s" e) v.evidence;
  line "";
  (match channel_deltas l with
  | Some (window, rows) ->
    line "per-channel deltas over the %s snapshot window:" (Time.to_string window);
    line "  %-14s %12s %14s %8s" "channel" "messages" "bytes" "drops";
    List.iter
      (fun (chan, msgs, bytes, drops) ->
        line "  %-14s %12.0f %14.0f %8.0f" chan msgs bytes drops)
      rows;
    line ""
  | None -> ());
  (match critical_path l with
  | Some s ->
    line "critical-path breakdown at incident time (%d committed traces):"
      s.Bftspan.Analyze.committed;
    line "  %-14s %8s %10s %10s" "stage" "share" "p50_ms" "p99_ms";
    List.iter
      (fun (r : Bftspan.Analyze.stage_row) ->
        line "  %-14s %7.2f%% %10.4f %10.4f" (Bftspan.Tag.name r.Bftspan.Analyze.tag)
          (100.0 *. r.Bftspan.Analyze.share)
          r.Bftspan.Analyze.p50_ms r.Bftspan.Analyze.p99_ms)
      s.Bftspan.Analyze.stages;
    line ""
  | None -> ());
  let skipped, tail = timeline_tail l in
  line "timeline (last %d audit events%s):" (List.length tail)
    (if skipped > 0 then Printf.sprintf ", %d older omitted" skipped else "");
  List.iter (fun e -> line "  %s" (format_event e)) tail;
  Buffer.contents buf

let verdict_json (l : Bundle.loaded) =
  let v = attribute l in
  let esc = Bftmetrics.Event.json_escape in
  let opt_int = function Some i -> string_of_int i | None -> "null" in
  Printf.sprintf
    {|{"bundle":"%s","trigger":"%s","fired_ns":%d,"cause":"%s","culprit_node":%s,"culprit_instance":%s,"confidence":"%s","digest":"%s","evidence":[%s]}|}
    (esc l.Bundle.l_dir) (esc l.Bundle.l_trigger)
    (l.Bundle.l_fired : Time.t)
    (esc v.cause) (opt_int v.culprit_node) (opt_int v.culprit_instance)
    v.confidence l.Bundle.l_digest
    (String.concat ","
       (List.map (fun e -> Printf.sprintf "\"%s\"" (esc e)) v.evidence))

(* Chrome trace of the incident window: the bundle's spans as complete
   ("X") events and its audit events as instants, same pid = node /
   tid = instance mapping as Bftspan.Analyze.write_chrome. *)
let write_chrome (l : Bundle.loaded) path =
  let args (s : Bftspan.Span.t) =
    Printf.sprintf {|"id":%d,"client":%d,"rid":%d|} s.id s.client s.rid
  in
  Bftmetrics.Chrome.write path
    (Bftspan.Analyze.chrome_spans ~args l.Bundle.l_spans
    @ List.map
        (fun (e : Bundle.ev) ->
          Bftmetrics.Chrome.Instant
            {
              name = e.e_kind;
              ts = e.e_time;
              pid = e.e_node;
              tid = e.e_instance;
              args = None;
            })
        l.Bundle.l_events)
