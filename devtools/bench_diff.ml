(* bench_diff: the gate over BENCH_*.json reports.

   Usage:
     bench_diff --gates FRESH.json [BASELINE.json] [--list]
     bench_diff BASELINE.json FRESH.json [--tolerance 0.15]
                [--skip SUBSTR] [--list]

   [--gates] runs every row of the gate table ([Table.rows]) whose
   report kind is FRESH's ["bench"] key: [rbft], [rbft-scale] or
   [rbft-clients]. A row names a leaf pattern, a rule (equal within a
   tolerance, no rise beyond a slack, a band on each leaf or on their
   sum, max or count, a ratio to another leaf, or a law over a sweep)
   and the source of its reason. Rows that compare against a baseline
   are skipped without one. Every failure is listed; any failure exits 1.

   The two-file form is the table's leaf diff alone, at a chosen
   tolerance and with extra skip substrings: every numeric leaf of the
   baseline must be in the fresh report and within the tolerance, and a
   zero baseline leaf must stay exactly zero. The simulated numbers come
   from virtual time in a seeded deterministic simulation, so at
   [--tolerance 0] it tells whether a change moved any of them. [--list]
   prints every leaf compared. *)

open Bftgates

let read_json path =
  let s = In_channel.with_open_bin path In_channel.input_all in
  try Bftmetrics.Jmini.parse s
  with Bftmetrics.Jmini.Parse_error msg ->
    Printf.eprintf "%s: %s\n" path msg;
    exit 2

let usage () =
  prerr_endline
    "usage: bench_diff --gates FRESH.json [BASELINE.json] [--list]\n\
    \       bench_diff BASELINE.json FRESH.json [--tolerance T] [--skip SUBSTR] [--list]";
  exit 2

let list_leaf path b f =
  Printf.printf "  %-60s %14.6g %14.6g %+7.2f%%\n" path b f (100.0 *. (f -. b) /. b)

let gates ~list fresh_path baseline_path =
  let fresh = read_json fresh_path in
  let baseline = Option.map read_json baseline_path in
  let on_compare = if list then list_leaf else fun _ _ _ -> () in
  let results = Gate.run ?baseline ~on_compare Table.rows fresh in
  if results = [] then begin
    Printf.eprintf "%s: no gate rows for this report's \"bench\" key\n" fresh_path;
    exit 2
  end;
  let failed = ref 0 and skipped = ref 0 in
  List.iter
    (fun ((row : Gate.row), result) ->
      let head verdict n =
        Printf.printf "%-5s %s  %s  (%d checked)\n" verdict row.path (Gate.describe row.rule) n
      in
      match result with
      | None ->
        incr skipped;
        head "skip" 0
      | Some { Gate.failures = []; checked } -> head "ok" checked
      | Some { Gate.failures; checked } ->
        incr failed;
        head "FAIL" checked;
        List.iter (Printf.printf "        %s\n") failures;
        Printf.printf "        why: %s\n" row.why)
    results;
  Printf.printf "gates: %d rows on %s, %d failed, %d skipped (no baseline)\n"
    (List.length results) fresh_path !failed !skipped;
  if !failed > 0 then exit 1

let diff ~list ~tolerance ~skips baseline_path fresh_path =
  let row =
    { Gate.bench = ""; path = "*"; rule = Within { tol = tolerance; skip = Table.default_skips @ skips };
      why = "" }
  in
  let on_compare = if list then list_leaf else fun _ _ _ -> () in
  match Gate.check ~baseline:(read_json baseline_path) ~on_compare row (read_json fresh_path) with
  | { failures = []; checked } ->
    Printf.printf "bench_diff: %d leaves within ±%g%% of %s\n" checked (100.0 *. tolerance)
      baseline_path
  | { failures; _ } ->
    Printf.eprintf "bench_diff: %d regression(s) vs %s (tolerance ±%g%%):\n" (List.length failures)
      baseline_path (100.0 *. tolerance);
    List.iter (Printf.eprintf "  %s\n") failures;
    exit 1

let () =
  let gate = ref false and list = ref false and tolerance = ref None and skips = ref [] in
  let rec parse files = function
    | [] -> List.rev files
    | "--gates" :: rest ->
      gate := true;
      parse files rest
    | "--list" :: rest ->
      list := true;
      parse files rest
    | "--tolerance" :: t :: rest ->
      (match float_of_string_opt t with
       | Some t when t >= 0.0 -> tolerance := Some t
       | _ ->
         Printf.eprintf "bad --tolerance %S\n" t;
         exit 2);
      parse files rest
    | "--skip" :: s :: rest ->
      skips := s :: !skips;
      parse files rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' -> parse (f :: files) rest
    | f :: _ ->
      Printf.eprintf "unexpected argument %S\n" f;
      usage ()
  in
  let files = parse [] (List.tl (Array.to_list Sys.argv)) in
  match (!gate, files) with
  | true, [ fresh ] when !tolerance = None && !skips = [] -> gates ~list:!list fresh None
  | true, [ fresh; base ] when !tolerance = None && !skips = [] ->
    gates ~list:!list fresh (Some base)
  | false, [ base; fresh ] ->
    diff ~list:!list ~tolerance:(Option.value ~default:0.15 !tolerance) ~skips:!skips base fresh
  | _ -> usage ()
