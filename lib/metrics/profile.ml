(* Wall-clock self-profiler: coarse per-subsystem time attribution for
   the bench harness (where did the real seconds go, and how much does
   enabling the registry cost). Spans are meant to wrap subsystem-
   sized work — experiment groups, export passes — not hot paths. *)

type slot = { mutable seconds : float; mutable calls : int }

type t = {
  slots : (string, slot) Hashtbl.t;
  mutable order : string list;  (* first-use order, reversed *)
}

let create () = { slots = Hashtbl.create 16; order = [] }

let slot t label =
  match Hashtbl.find_opt t.slots label with
  | Some s -> s
  | None ->
    let s = { seconds = 0.0; calls = 0 } in
    Hashtbl.add t.slots label s;
    t.order <- label :: t.order;
    s

let add t label seconds =
  let s = slot t label in
  s.seconds <- s.seconds +. seconds;
  s.calls <- s.calls + 1

let time t label f =
  let t0 = Unix.gettimeofday () in
  Fun.protect
    ~finally:(fun () -> add t label (Unix.gettimeofday () -. t0))
    f

let report t =
  List.rev_map
    (fun label ->
      let s = Hashtbl.find t.slots label in
      (label, s.seconds, s.calls))
    t.order
  |> List.sort (fun (_, a, _) (_, b, _) -> compare b a)

let reset t =
  Hashtbl.reset t.slots;
  t.order <- []

let total t = Hashtbl.fold (fun _ s acc -> acc +. s.seconds) t.slots 0.0

let print t oc =
  let rows = report t in
  if rows <> [] then begin
    let total = total t in
    Printf.fprintf oc "\n== Self-profile (wall clock) ==\n";
    List.iter
      (fun (label, seconds, calls) ->
        Printf.fprintf oc "  %-32s %8.2fs %5.1f%%  (%d call%s)\n" label seconds
          (if total > 0.0 then 100.0 *. seconds /. total else 0.0)
          calls
          (if calls = 1 then "" else "s"))
      rows;
    Printf.fprintf oc "  %-32s %8.2fs\n" "total" total
  end

let json t =
  "["
  ^ String.concat ","
      (List.map
         (fun (label, seconds, calls) ->
           Printf.sprintf {|{"label":"%s","seconds":%.6f,"calls":%d}|}
             (Export.json_escape label) seconds calls)
         (report t))
  ^ "]"
