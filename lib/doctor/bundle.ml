(** Self-contained incident bundles.

    A bundle is a directory written at trigger time:

    {v
    incident-003-instance-change/
      manifest.json    trigger, fire instant, reason, seed, config,
                       counts, and the chained bundle digest
      audit.jsonl      recent audit events (canonical Event.to_json)
      spans.jsonl      recent closed spans (canonical Span.write_json)
      metrics.json     ring of timestamped registry snapshots
      footprint.json   sorted per-structure memory footprint table
      scenario.scn     the active chaos scenario, when there is one
    v}

    The digest chains SHA-256 over a canonical header line followed by
    each section's exact bytes (audit, spans, metrics, footprint,
    scenario), seeded with ["bftdoctor-bundle-v2"]. Every byte of every section
    is derived from sim state only — no wall clock, no environment —
    so a same-seed replay that fires the same trigger produces a
    byte-identical bundle with an identical digest. The manifest
    itself carries the digest and is therefore outside the chain. *)

open Dessim
module Event = Bftmetrics.Event
module Span = Bftspan.Span

type incident = {
  trigger : string;
  fired_at : Time.t;
  reason : string;
  seed : int64;
  config : (string * string) list;
  scenario : string option;
  events : Event.t list;  (** oldest first *)
  spans : Span.t list;  (** oldest first *)
  snapshots : Recorder.snapshot list;  (** oldest first *)
  footprint : Bftcap.Footprint.row list;  (** sorted worst-first *)
}

(* --- section rendering --------------------------------------------- *)

let audit_jsonl inc =
  let buf = Buffer.create 4096 in
  List.iter
    (fun ev ->
      Buffer.add_string buf (Event.to_json ev);
      Buffer.add_char buf '\n')
    inc.events;
  Buffer.contents buf

let spans_jsonl inc =
  let buf = Buffer.create 4096 in
  List.iter
    (fun s ->
      Span.write_json buf s;
      Buffer.add_char buf '\n')
    inc.spans;
  Buffer.contents buf

let metrics_json inc =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i (snap : Recorder.snapshot) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf {|{"t_ns":%d,"samples":%s}|}
           (snap.Recorder.m_time : Time.t)
           (Bftmetrics.Export.json_of_samples snap.Recorder.m_samples)))
    inc.snapshots;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

(* Canonical header: the non-file manifest fields that must also be
   digest-protected. One line, fixed field order. *)
let header inc =
  Printf.sprintf "bftdoctor-bundle-v2|%s|%d|%s|%Ld|%s|%s\n" inc.trigger
    (inc.fired_at : Time.t)
    inc.reason inc.seed
    (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) inc.config))
    (match inc.scenario with Some _ -> "scn" | None -> "-")

let chain_digest ~header:hdr ~audit ~spans ~metrics ~footprint ~scenario =
  let chain = ref (Bftcrypto.Sha256.digest_string "bftdoctor-bundle-v2") in
  let feed s = chain := Bftcrypto.Sha256.digest_string (!chain ^ s) in
  feed hdr;
  feed audit;
  feed spans;
  feed metrics;
  feed footprint;
  feed (Option.value ~default:"" scenario);
  Bftcrypto.Sha256.to_hex !chain

let json_escape = Event.json_escape

let footprint_json inc =
  let buf = Buffer.create 512 in
  Buffer.add_string buf "[";
  List.iteri
    (fun i (r : Bftcap.Footprint.row) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf
           {|{"structure":"%s","owner":"%s","entries":%d,"peak":%d,"bytes":%d}|}
           (json_escape r.Bftcap.Footprint.r_name)
           (json_escape r.Bftcap.Footprint.r_owner)
           r.Bftcap.Footprint.r_entries r.Bftcap.Footprint.r_peak
           r.Bftcap.Footprint.r_bytes))
    inc.footprint;
  Buffer.add_string buf "]\n";
  Buffer.contents buf

let digest inc =
  chain_digest ~header:(header inc) ~audit:(audit_jsonl inc)
    ~spans:(spans_jsonl inc) ~metrics:(metrics_json inc)
    ~footprint:(footprint_json inc) ~scenario:inc.scenario

let manifest_json inc ~digest:dg =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "{\n";
  Buffer.add_string buf {|  "bundle": "bftdoctor-v2",|};
  Buffer.add_string buf "\n";
  Buffer.add_string buf
    (Printf.sprintf "  \"trigger\": \"%s\",\n" (json_escape inc.trigger));
  Buffer.add_string buf
    (Printf.sprintf "  \"fired_ns\": %d,\n" (inc.fired_at : Time.t));
  Buffer.add_string buf
    (Printf.sprintf "  \"reason\": \"%s\",\n" (json_escape inc.reason));
  Buffer.add_string buf (Printf.sprintf "  \"seed\": \"%Ld\",\n" inc.seed);
  Buffer.add_string buf
    (Printf.sprintf "  \"scenario\": %b,\n" (inc.scenario <> None));
  Buffer.add_string buf "  \"config\": {";
  List.iteri
    (fun i (k, v) ->
      if i > 0 then Buffer.add_char buf ',';
      Buffer.add_string buf
        (Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)))
    inc.config;
  Buffer.add_string buf "},\n";
  Buffer.add_string buf
    (Printf.sprintf
       "  \"counts\": \
        {\"events\":%d,\"spans\":%d,\"snapshots\":%d,\"footprint\":%d},\n"
       (List.length inc.events) (List.length inc.spans)
       (List.length inc.snapshots)
       (List.length inc.footprint));
  Buffer.add_string buf (Printf.sprintf "  \"digest\": \"%s\"\n" dg);
  Buffer.add_string buf "}\n";
  Buffer.contents buf

(** All bundle files as (name, content), manifest first. *)
let render inc =
  let dg = digest inc in
  let files =
    [
      ("manifest.json", manifest_json inc ~digest:dg);
      ("audit.jsonl", audit_jsonl inc);
      ("spans.jsonl", spans_jsonl inc);
      ("metrics.json", metrics_json inc);
      ("footprint.json", footprint_json inc);
    ]
  in
  ( dg,
    match inc.scenario with
    | Some scn -> files @ [ ("scenario.scn", scn) ]
    | None -> files )

let rec mkdirs path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdirs (Filename.dirname path);
    (try Sys.mkdir path 0o755 with Sys_error _ -> ())
  end

let write_file path content =
  let oc = open_out_bin path in
  output_string oc content;
  close_out oc

(** Write the bundle under [dir] (created if needed); returns the
    bundle digest. *)
let write ~dir inc =
  mkdirs dir;
  let dg, files = render inc in
  List.iter (fun (name, content) -> write_file (Filename.concat dir name) content) files;
  dg

(* --- reading bundles back ------------------------------------------ *)

type ev = {
  e_time : Time.t;
  e_node : int;
  e_instance : int;
  e_kind : string;
  e_args : Jmini.v;
}

type loaded = {
  l_dir : string;
  l_trigger : string;
  l_fired : Time.t;
  l_reason : string;
  l_seed : string;
  l_config : (string * string) list;
  l_digest : string;
  l_scenario : string option;
  l_events : ev list;
  l_spans : Span.t array;
  l_snapshots : (Time.t * Jmini.v) list;
      (** raw snapshot objects; see {!samples_of_snapshot} *)
  l_footprint : (string * string * int * int * int) list;
      (** (structure, owner, entries, peak, bytes), table order *)
}

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let read_file_opt path = if Sys.file_exists path then Some (read_file path) else None

let parse_event line =
  match Jmini.parse_opt line with
  | None -> None
  | Some v -> (
    match
      (Jmini.get_int "ts" v, Jmini.get_int "node" v, Jmini.get_int "instance" v,
       Jmini.get_str "kind" v)
    with
    | Some ts, Some node, Some instance, Some kind ->
      Some { e_time = Time.ns ts; e_node = node; e_instance = instance;
             e_kind = kind; e_args = v }
    | _ -> None)

let parse_lines content parse =
  String.split_on_char '\n' content
  |> List.filter_map (fun line ->
         if String.trim line = "" then None else parse line)

let load ~dir =
  let manifest = Jmini.parse (read_file (Filename.concat dir "manifest.json")) in
  let field name =
    match Jmini.get_str name manifest with
    | Some s -> s
    | None -> failwith (Printf.sprintf "bundle manifest: missing %S" name)
  in
  let config =
    match Jmini.mem "config" manifest with
    | Some (Jmini.Obj kvs) ->
      List.filter_map
        (fun (k, v) -> Option.map (fun s -> (k, s)) (Jmini.str v))
        kvs
    | _ -> []
  in
  let events = parse_lines (read_file (Filename.concat dir "audit.jsonl")) parse_event in
  let spans =
    parse_lines (read_file (Filename.concat dir "spans.jsonl")) Span.of_json_opt
    |> Array.of_list
  in
  let snapshots =
    match Jmini.parse_opt (read_file (Filename.concat dir "metrics.json")) with
    | Some (Jmini.Arr snaps) ->
      List.filter_map
        (fun s ->
          Option.map (fun t -> (Time.ns t, s)) (Jmini.get_int "t_ns" s))
        snaps
    | _ -> []
  in
  let footprint =
    match
      Option.bind
        (read_file_opt (Filename.concat dir "footprint.json"))
        Jmini.parse_opt
    with
    | Some (Jmini.Arr rows) ->
      List.filter_map
        (fun r ->
          match
            ( Jmini.get_str "structure" r,
              Jmini.get_str "owner" r,
              Jmini.get_int "entries" r,
              Jmini.get_int "peak" r,
              Jmini.get_int "bytes" r )
          with
          | Some s, Some o, Some e, Some p, Some b -> Some (s, o, e, p, b)
          | _ -> None)
        rows
    | _ -> []
  in
  {
    l_dir = dir;
    l_trigger = field "trigger";
    l_fired =
      Time.ns (Option.value ~default:0 (Jmini.get_int "fired_ns" manifest));
    l_reason = field "reason";
    l_seed = field "seed";
    l_config = config;
    l_digest = field "digest";
    l_scenario = read_file_opt (Filename.concat dir "scenario.scn");
    l_events = events;
    l_spans = spans;
    l_snapshots = snapshots;
    l_footprint = footprint;
  }

(** Flatten one raw snapshot object into (name, labels, numeric value)
    samples; histogram summaries contribute their p99 under
    ["<name>:p99"] alongside the count under ["<name>:count"]. *)
let samples_of_snapshot (snap : Jmini.v) =
  match Jmini.mem "samples" snap with
  | Some (Jmini.Arr samples) ->
    List.filter_map
      (fun s ->
        match (Jmini.get_str "name" s, Jmini.mem "labels" s, Jmini.mem "value" s) with
        | Some name, labels, Some value ->
          let labels =
            match labels with
            | Some (Jmini.Obj kvs) ->
              List.filter_map
                (fun (k, v) -> Option.map (fun x -> (k, x)) (Jmini.str v))
                kvs
            | _ -> []
          in
          (match value with
          | Jmini.Num f -> Some [ (name, labels, f) ]
          | Jmini.Obj _ ->
            let get k = Option.value ~default:0.0 (Jmini.get_num k value) in
            Some
              [
                (name ^ ":count", labels, get "count");
                (name ^ ":p99", labels, get "p99");
              ]
          | _ -> None)
        | _ -> None)
      samples
    |> List.concat
  | _ -> []

(** Recompute the chained digest from the files on disk and compare to
    the manifest. *)
let verify ~dir =
  try
    let l = load ~dir in
    let inc_header =
      Printf.sprintf "bftdoctor-bundle-v2|%s|%d|%s|%s|%s|%s\n" l.l_trigger
        (l.l_fired : Time.t)
        l.l_reason l.l_seed
        (String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) l.l_config))
        (match l.l_scenario with Some _ -> "scn" | None -> "-")
    in
    let recomputed =
      chain_digest ~header:inc_header
        ~audit:(read_file (Filename.concat dir "audit.jsonl"))
        ~spans:(read_file (Filename.concat dir "spans.jsonl"))
        ~metrics:(read_file (Filename.concat dir "metrics.json"))
        ~footprint:
          (Option.value ~default:""
             (read_file_opt (Filename.concat dir "footprint.json")))
        ~scenario:l.l_scenario
    in
    if recomputed = l.l_digest then Ok l.l_digest
    else
      Error
        (Printf.sprintf "digest mismatch: manifest %s, recomputed %s"
           l.l_digest recomputed)
  with
  | Sys_error e -> Error e
  | Failure e -> Error e
  | Jmini.Parse_error e -> Error ("manifest parse error: " ^ e)
