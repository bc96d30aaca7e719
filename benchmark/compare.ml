(* compare: judge a change against its parent from rbftbench results.

     compare [--spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl

   Each file holds the lines `rbftbench --seed N` prints (one per
   workload, with a "workload" key), for several seeds run in the same
   order on both sides. Every end-to-end metric of every workload gets
   one row: gain, same, worse or unresolved (see Verdict), with
   BENCHMARK.json's direction and bound. The exit code is 1 when a row
   is worse, when completed_share falls at all on any workload (a change
   may not trade completed requests for speed), or when a row has no
   data. *)

open Benchcore

let read path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter_map (fun line ->
         let open Bftdoctor.Jmini in
         match parse_opt line with
         | Some v -> (
           match (get_str "workload" v, Option.bind (mem "metrics" v) obj) with
           | Some w, Some metrics ->
             Some
               ( w,
                 List.filter_map
                   (fun (k, m) -> Option.map (fun x -> (k, x)) (get_num "value" m))
                   metrics )
           | _ -> None)
         | None -> None)

let values runs ~workload ~metric =
  List.filter_map
    (fun (w, metrics) -> if w = workload then List.assoc_opt metric metrics else None)
    runs

let () =
  let spec = ref "BENCHMARK.json" and files = ref [] in
  Arg.parse
    [ ("--spec", Arg.Set_string spec, "PATH benchmark declaration (default BENCHMARK.json)") ]
    (fun f -> files := !files @ [ f ])
    "compare [--spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl";
  match !files with
  | [ parent; change ] ->
    let spec = Spec.load !spec in
    let parent = read parent and change = read change in
    Printf.printf "%-16s %-18s %14s %14s %7s  %s\n" "workload" "metric" "parent" "change"
      "wins" "verdict";
    let ok =
      List.fold_left
        (fun ok (workload, _) ->
          List.fold_left
            (fun ok (m : Spec.metric) ->
              let p = values parent ~workload ~metric:m.Spec.name in
              let c = values change ~workload ~metric:m.Spec.name in
              if p = [] || c = [] then begin
                Printf.printf "%-16s %-18s no data\n" workload m.Spec.name;
                false
              end
              else
                let r = Verdict.judge ~better:m.Spec.better ~bound:m.Spec.bound ~parent:p ~change:c in
                let fewer_completed =
                  m.Spec.name = "completed_share" && r.Verdict.change_median < r.Verdict.parent_median
                in
                Printf.printf "%-16s %-18s %14.6g %14.6g %3d/%-3d  %s%s\n" workload m.Spec.name
                  r.Verdict.parent_median r.Verdict.change_median r.Verdict.wins r.Verdict.pairs
                  (Verdict.name r.Verdict.verdict)
                  (if fewer_completed then " (fewer requests completed)" else "");
                ok && r.Verdict.verdict <> Verdict.Worse && not fewer_completed)
            ok spec.Spec.end_to_end)
        true spec.Spec.workloads
    in
    exit (if ok then 0 else 1)
  | _ ->
    prerr_endline "usage: compare [--spec BENCHMARK.json] PARENT.jsonl CHANGE.jsonl";
    exit 2
