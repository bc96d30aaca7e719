(* Per-structure footprint probes, read back from a run's probe. See
   footprint.mli. *)

module Probe = Bftmetrics.Probe

type t = Probe.footprint

let peak (p : t) = p.fp_peak
let observe_peaks probe = List.iter Probe.observe (Probe.footprint_list probe)

let word_bytes = Sys.word_size / 8

type row = {
  r_name : string;
  r_owner : string;
  r_entries : int;
  r_peak : int;
  r_bytes : int;
}

let reachable (p : t) =
  match p.fp_root () with
  | Some o -> Obj.reachable_words o * word_bytes
  | None -> 0

let snapshot ?deep probe =
  let deep = match deep with Some d -> d | None -> Probe.deep probe in
  let raw =
    List.map
      (fun (p : t) ->
        Probe.observe p;
        (p, p.fp_entries (), if deep then reachable p else 0))
      (Probe.footprint_list probe)
  in
  let rows =
    List.map
      (fun ((p : t), e, bytes) ->
        (* Exclusive bytes: subtract children reachable from this
           probe's root so nested probes sum without double-count. *)
        let child_bytes =
          List.fold_left
            (fun acc ((c : t), _, cb) ->
              if c.fp_parent = Some p.fp_name then acc + cb else acc)
            0 raw
        in
        {
          r_name = p.fp_name;
          r_owner = p.fp_owner;
          r_entries = e;
          r_peak = p.fp_peak;
          r_bytes = (if deep then max 0 (bytes - child_bytes) else 0);
        })
      raw
  in
  List.sort
    (fun a b ->
      match compare b.r_bytes a.r_bytes with
      | 0 -> (
        match compare b.r_entries a.r_entries with
        | 0 -> (
          match compare a.r_name b.r_name with
          | 0 -> compare a.r_owner b.r_owner
          | c -> c)
        | c -> c)
      | c -> c)
    rows

let table ?deep probe =
  let rows = snapshot ?deep probe in
  let buf = Buffer.create 512 in
  Buffer.add_string buf
    (Printf.sprintf "%-28s %-12s %10s %10s %12s\n" "structure" "owner"
       "entries" "peak" "bytes");
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "%-28s %-12s %10d %10d %12d\n" r.r_name r.r_owner
           r.r_entries r.r_peak r.r_bytes))
    rows;
  Buffer.contents buf

let peak_entries probe =
  List.map (fun (p : t) -> (p.fp_name ^ "/" ^ p.fp_owner, p.fp_peak)) (Probe.footprint_list probe)
  |> List.sort (fun (a, _) (b, _) -> compare a b)
