(** Span-tree analysis: critical path, latency budget, fairness.

    A captured run yields one span tree per sampled request. For every
    request whose root closed (the client saw f+1 matching replies) we
    compute a {e critical path}: walking backwards from the reply
    instant, repeatedly pick the latest-finishing closed span at or
    before the cursor ("last finisher"), charge its interval to its
    tag, charge any gap to the tag of the span that follows it, and
    continue from its start. The segments partition the root interval
    exactly, so per-stage shares sum to exactly 1.0 — the acceptance
    bound of "within 1%" holds by construction. *)

open Dessim
open Bftmetrics

type seg = { seg_tag : Tag.t; seg_node : int; seg_from : Time.t; seg_to : Time.t }

type trace = {
  root : Span.t;
  spans : Span.t list;  (** every span of the trace, root included *)
  total : Time.t;  (** root duration; zero for open roots *)
  budget : (Tag.t * Time.t) list;  (** critical-path time per tag *)
  path : seg list;  (** chronological critical-path segments *)
}

type stage_row = {
  tag : Tag.t;
  total_ns : float;  (** summed over committed traces *)
  share : float;  (** of summed end-to-end latency *)
  p50_ms : float;  (** per-request attributed time percentiles *)
  p99_ms : float;
}

type summary = {
  span_count : int;
  sampled : int;  (** root spans seen *)
  committed : int;  (** roots that closed *)
  open_roots : int;  (** dropped or still-in-flight requests *)
  open_spans : int;  (** non-root spans left open *)
  orphans : int;  (** spans whose parent id is absent *)
  stages : stage_row list;  (** non-zero stages, canonical tag order *)
  share_sum : float;
  total_p50_ms : float;
  total_p99_ms : float;
  traces : trace list;  (** committed traces, slowest first *)
}

let percentile xs p =
  match xs with
  | [||] -> 0.0
  | _ ->
    let xs = Array.copy xs in
    Array.sort compare xs;
    let n = Array.length xs in
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    xs.(max 0 (min (n - 1) (rank - 1)))

(* Last-finisher backward walk over one trace. *)
let attribute root spans =
  let cands =
    List.filter (fun s -> s.Span.id <> root.Span.id && not (Span.is_open s)) spans
    |> Array.of_list
  in
  Array.sort
    (fun a b ->
      compare (a.Span.t1, a.Span.t0, a.Span.id) (b.Span.t1, b.Span.t0, b.Span.id))
    cands;
  let segs = ref [] in
  let add tag node a b =
    if b > a then
      segs := { seg_tag = tag; seg_node = node; seg_from = a; seg_to = b } :: !segs
  in
  let t = ref root.Span.t1 in
  let next_tag = ref root.Span.tag and next_node = ref root.Span.node in
  let i = ref (Array.length cands - 1) in
  while !t > root.Span.t0 && !i >= 0 do
    let c = cands.(!i) in
    decr i;
    if c.Span.t1 <= !t && c.Span.t1 > root.Span.t0 then begin
      add !next_tag !next_node c.Span.t1 !t;
      let s0 = Time.max c.Span.t0 root.Span.t0 in
      add c.Span.tag c.Span.node s0 (Time.min c.Span.t1 !t);
      t := s0;
      next_tag := c.Span.tag;
      next_node := c.Span.node
    end
  done;
  add !next_tag !next_node root.Span.t0 !t;
  let path = !segs in
  let budget = Hashtbl.create 8 in
  List.iter
    (fun s ->
      let d = Time.sub s.seg_to s.seg_from in
      let prev = try Hashtbl.find budget s.seg_tag with Not_found -> Time.zero in
      Hashtbl.replace budget s.seg_tag (Time.add prev d))
    path;
  let budget =
    List.filter_map
      (fun tag ->
        match Hashtbl.find_opt budget tag with
        | Some d when d > Time.zero -> Some (tag, d)
        | _ -> None)
      Tag.all
  in
  (budget, path)

let traces_of_spans spans =
  (* Group by (client, rid); roots have parent = -1. *)
  let by_req = Hashtbl.create 256 in
  Array.iter
    (fun s ->
      let key = (s.Span.client, s.Span.rid) in
      Hashtbl.replace by_req key
        (s :: (try Hashtbl.find by_req key with Not_found -> [])))
    spans;
  let traces = ref [] and rootless = ref 0 in
  Hashtbl.iter
    (fun _ group ->
      let group = List.rev group in
      match List.find_opt (fun s -> s.Span.parent = -1) group with
      | None -> rootless := !rootless + List.length group
      | Some root ->
        let total = Span.duration root in
        let budget, path =
          if Span.is_open root then ([], []) else attribute root group
        in
        traces := { root; spans = group; total; budget; path } :: !traces)
    by_req;
  (!traces, !rootless)

(* Tree well-formedness: every parent exists, belongs to the same
   request, and does not start after its child. Returns human-readable
   violations; [] means every trace is a well-formed tree. *)
let check_trees spans =
  let by_id = Hashtbl.create (Array.length spans) in
  Array.iter (fun s -> Hashtbl.replace by_id s.Span.id s) spans;
  let errs = ref [] in
  let err fmt = Printf.ksprintf (fun m -> errs := m :: !errs) fmt in
  Array.iter
    (fun s ->
      if s.Span.parent >= 0 then
        match Hashtbl.find_opt by_id s.Span.parent with
        | None -> err "span %d: orphan (parent %d absent)" s.Span.id s.Span.parent
        | Some p ->
          if p.Span.client <> s.Span.client || p.Span.rid <> s.Span.rid then
            err "span %d: parent %d belongs to another request" s.Span.id
              p.Span.id;
          if s.Span.t0 < p.Span.t0 then
            err "span %d: starts before its parent %d" s.Span.id p.Span.id)
    spans;
  List.rev !errs

let summarize spans =
  let traces, rootless = traces_of_spans spans in
  let committed, open_t = List.partition (fun t -> not (Span.is_open t.root)) traces in
  let committed = List.sort (fun a b -> compare b.total a.total) committed in
  let open_spans =
    Array.fold_left
      (fun acc s -> if s.Span.parent >= 0 && Span.is_open s then acc + 1 else acc)
      0 spans
  in
  let totals =
    Array.of_list (List.map (fun t -> Time.to_ms_f t.total) committed)
  in
  let grand_total =
    List.fold_left (fun acc t -> Time.add acc t.total) Time.zero committed
  in
  let stages =
    List.filter_map
      (fun tag ->
        let per_req =
          List.map
            (fun t ->
              match List.assoc_opt tag t.budget with
              | Some d -> Time.to_ms_f d
              | None -> 0.0)
            committed
        in
        let total_ns =
          List.fold_left
            (fun acc t ->
              match List.assoc_opt tag t.budget with
              | Some d -> acc +. float_of_int (d : Time.t)
              | None -> acc)
            0.0 committed
        in
        if total_ns <= 0.0 then None
        else
          let arr = Array.of_list per_req in
          Some
            {
              tag;
              total_ns;
              share =
                (if grand_total > Time.zero then
                   total_ns /. float_of_int (grand_total : Time.t)
                 else 0.0);
              p50_ms = percentile arr 50.0;
              p99_ms = percentile arr 99.0;
            })
      Tag.all
  in
  {
    span_count = Array.length spans;
    sampled = List.length traces;
    committed = List.length committed;
    open_roots = List.length open_t;
    open_spans;
    orphans = rootless;
    stages;
    share_sum = List.fold_left (fun acc r -> acc +. r.share) 0.0 stages;
    total_p50_ms = percentile totals 50.0;
    total_p99_ms = percentile totals 99.0;
    traces = committed;
  }

let dominant_stage t =
  match
    List.sort (fun (_, a) (_, b) -> compare (b : Time.t) (a : Time.t)) t.budget
  with
  | [] -> (Tag.Other, Time.zero)
  | hd :: _ -> hd

let per_client committed =
  let by_client = Hashtbl.create 32 in
  List.iter
    (fun t ->
      let c = t.root.Span.client in
      Hashtbl.replace by_client c
        (Time.to_ms_f t.total
        :: (try Hashtbl.find by_client c with Not_found -> [])))
    committed;
  Hashtbl.fold
    (fun c xs acc ->
      let arr = Array.of_list xs in
      (c, Array.length arr, percentile arr 50.0, percentile arr 99.0) :: acc)
    by_client []
  |> List.sort (fun (a, _, _, _) (b, _, _, _) -> compare a b)

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

let report ?(slowest = 5) summary =
  let buf = Buffer.create 4096 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "spans: %d   requests: %d sampled, %d committed, %d open%s\n"
    summary.span_count summary.sampled summary.committed summary.open_roots
    (if summary.orphans > 0 then
       Printf.sprintf ", %d orphan spans" summary.orphans
     else "");
  if summary.open_roots > 0 then
    p "  (open requests were dropped or still in flight at cutoff)\n";
  p "end-to-end latency: p50 %.3f ms   p99 %.3f ms\n" summary.total_p50_ms
    summary.total_p99_ms;
  p "\nper-stage critical-path attribution:\n";
  p "  %-14s %8s %12s %12s\n" "stage" "share" "p50(ms)" "p99(ms)";
  List.iter
    (fun r ->
      p "  %-14s %7.2f%% %12.4f %12.4f\n" (Tag.name r.tag) (100.0 *. r.share)
        r.p50_ms r.p99_ms)
    summary.stages;
  p "  %-14s %7.2f%%\n" "TOTAL" (100.0 *. summary.share_sum);
  (match summary.traces with
  | [] -> ()
  | traces ->
    p "\nslowest %d requests (critical path):\n"
      (min slowest (List.length traces));
    List.iteri
      (fun i t ->
        if i < slowest then begin
          let dtag, dns = dominant_stage t in
          p "  #%d client %d rid %d: %.3f ms, dominant stage %s (%.1f%%)\n"
            (i + 1) t.root.Span.client t.root.Span.rid (Time.to_ms_f t.total)
            (Tag.name dtag)
            (if t.total > Time.zero then
               100.0 *. float_of_int (dns : Time.t)
               /. float_of_int (t.total : Time.t)
             else 0.0);
          List.iter
            (fun s ->
              p "      %-14s %9.4f ms%s\n" (Tag.name s.seg_tag)
                (Time.to_ms_f (Time.sub s.seg_to s.seg_from))
                (if s.seg_node >= 0 then Printf.sprintf "  (node %d)" s.seg_node
                 else ""))
            t.path
        end)
      traces);
  Buffer.contents buf

(* [summary.traces] already holds exactly the committed traces, so the
   client table reuses them instead of regrouping millions of spans. *)
let client_report summary =
  let buf = Buffer.create 1024 in
  let p fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  p "per-client latency spread:\n";
  p "  %-8s %6s %12s %12s\n" "client" "n" "p50(ms)" "p99(ms)";
  List.iter
    (fun (c, n, p50, p99) -> p "  %-8d %6d %12.4f %12.4f\n" c n p50 p99)
    (per_client summary.traces);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSONL input and Chrome trace_event output                          *)
(* ------------------------------------------------------------------ *)

let read_jsonl path =
  let ic = open_in path in
  let acc = ref [] in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () ->
      try
        while true do
          let line = input_line ic in
          if String.trim line <> "" then
            match Span.of_json_opt line with
            | Some s -> acc := s :: !acc
            | None -> failwith (Printf.sprintf "unparsable span line: %s" line)
        done
      with End_of_file -> ());
  Array.of_list (List.rev !acc)

(* Chrome about:tracing / Perfetto export. Spans become complete ("X")
   events; audit events, when supplied, join the same timeline as
   instant ("i") events with the identical pid = node / tid = instance
   mapping, so nested spans and flat audit marks align. Client-side
   spans (node = -1) keep pid = -1 and use tid = client so each client
   gets its own lane. *)
let chrome_span ~args (s : Span.t) =
  Chrome.Complete
    {
      name = Tag.name s.tag;
      ts = s.t0;
      dur = Span.duration s;
      pid = s.node;
      tid = (if s.node < 0 then s.client else s.instance);
      args = args s;
    }

let chrome_spans ~args spans =
  Array.fold_right
    (fun s acc -> if Span.is_open s then acc else chrome_span ~args s :: acc)
    spans []

let write_chrome ?audit spans path =
  let args (s : Span.t) =
    Printf.sprintf {|"id":%d,"parent":%d,"client":%d,"rid":%d|} s.id s.parent s.client
      s.rid
  in
  Chrome.write path
    (chrome_spans ~args spans
    @ (match audit with
      | None -> []
      | Some c -> List.map Bftaudit.Capture.chrome_event (Bftaudit.Capture.events c)))
