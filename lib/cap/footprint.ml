(* Per-structure footprint probes. See footprint.mli. *)

type t = {
  p_name : string;
  p_owner : string;
  p_parent : string option;
  mutable p_entries : unit -> int;
  mutable p_root : unit -> Obj.t option;
  mutable p_peak : int;
}

let enabled = ref false
let active () = !enabled
let enable () = enabled := true
let disable () = enabled := false

let deep_enabled = ref false
let deep () = !deep_enabled
let set_deep b = deep_enabled := b

let probes : t list ref = ref []

let find_opt ~name ~owner =
  List.find_opt (fun p -> p.p_name = name && p.p_owner = owner) !probes

let word_bytes = Sys.word_size / 8

let register ?(owner = "global") ?parent ~name ~entries ~root () =
  let p =
    match find_opt ~name ~owner with
    | Some p ->
      (* Rebind, like Registry.gauge_fn: a fresh component takes over
         the series; the peak restarts with it. *)
      p.p_entries <- entries;
      p.p_root <- root;
      p.p_peak <- 0;
      p
    | None ->
      let p =
        { p_name = name; p_owner = owner; p_parent = parent;
          p_entries = entries; p_root = root; p_peak = 0 }
      in
      probes := !probes @ [ p ];
      p
  in
  Bftmetrics.Registry.gauge_fn Bftmetrics.Registry.default
    ~help:"Live entry count of an instrumented structure"
    "bft_footprint_entries"
    ~labels:[ ("structure", name); ("owner", owner) ]
    (fun () -> float_of_int (p.p_entries ()));
  p

let note p =
  if !enabled then begin
    let e = p.p_entries () in
    if e > p.p_peak then p.p_peak <- e
  end

let entries p = p.p_entries ()
let peak p = p.p_peak

let observe_peaks () =
  List.iter
    (fun p ->
      let e = p.p_entries () in
      if e > p.p_peak then p.p_peak <- e)
    !probes

let clear () = probes := []

type row = {
  r_name : string;
  r_owner : string;
  r_entries : int;
  r_peak : int;
  r_bytes : int;
}

let reachable p =
  match p.p_root () with
  | Some o -> Obj.reachable_words o * word_bytes
  | None -> 0

let snapshot ?deep () =
  let deep = match deep with Some d -> d | None -> !deep_enabled in
  let raw =
    List.map
      (fun p ->
        let e = p.p_entries () in
        if e > p.p_peak then p.p_peak <- e;
        (p, e, if deep then reachable p else 0))
      !probes
  in
  let rows =
    List.map
      (fun (p, e, bytes) ->
        (* Exclusive bytes: subtract children reachable from this
           probe's root so nested probes sum without double-count. *)
        let child_bytes =
          List.fold_left
            (fun acc (c, _, cb) ->
              if c.p_parent = Some p.p_name then acc + cb else acc)
            0 raw
        in
        {
          r_name = p.p_name;
          r_owner = p.p_owner;
          r_entries = e;
          r_peak = p.p_peak;
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

let table ?deep () =
  let rows = snapshot ?deep () in
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

let peak_entries () =
  List.map (fun p -> (p.p_name ^ "/" ^ p.p_owner, p.p_peak)) !probes
  |> List.sort (fun (a, _) (b, _) -> compare a b)
