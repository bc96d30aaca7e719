(* GC / heap telemetry. See gcstats.mli. *)

open Dessim

type sample = {
  s_at : Time.t;
  s_minor_collections : int;
  s_major_collections : int;
  s_compactions : int;
  s_minor_words : float;
  s_promoted_words : float;
  s_heap_words : int;
  s_live_words : int;
  s_entries : (string * int) list;
}

type t = {
  probe : Bftmetrics.Probe.t;
  read_stat : unit -> Gc.stat;
  base : Gc.stat;
  window : sample Bftmetrics.Ring.t;
  mutable peak_live : int;
  mutable peak_heap : int;
}

let sample_of_stat ~now (st : Gc.stat) =
  {
    s_at = now;
    s_minor_collections = st.Gc.minor_collections;
    s_major_collections = st.Gc.major_collections;
    s_compactions = st.Gc.compactions;
    s_minor_words = st.Gc.minor_words;
    s_promoted_words = st.Gc.promoted_words;
    s_heap_words = st.Gc.heap_words;
    s_live_words = st.Gc.live_words;
    s_entries = [];
  }

let register_metrics t =
  let reg = Bftmetrics.Probe.registry t.probe in
  let g name help f =
    Bftmetrics.Registry.gauge_fn reg ~help name ~labels:[] f
  in
  g "bft_gc_minor_collections" "Minor GC cycles since process start"
    (fun () -> float_of_int (t.read_stat ()).Gc.minor_collections);
  g "bft_gc_major_collections" "Major GC cycles since process start"
    (fun () -> float_of_int (t.read_stat ()).Gc.major_collections);
  g "bft_gc_minor_words" "Cumulative minor-heap allocation (words)"
    (fun () -> (t.read_stat ()).Gc.minor_words);
  g "bft_gc_promoted_words" "Cumulative words promoted to the major heap"
    (fun () -> (t.read_stat ()).Gc.promoted_words);
  g "bft_gc_heap_words" "Major heap size (words)"
    (fun () -> float_of_int (t.read_stat ()).Gc.heap_words);
  g "bft_gc_live_words" "Live words as of the last major GC"
    (fun () -> float_of_int (t.read_stat ()).Gc.live_words)

let window = 256

let create ?(read_stat = Gc.quick_stat) ?(metrics = false) probe =
  let t =
    {
      probe;
      read_stat;
      base = read_stat ();
      window = Bftmetrics.Ring.create window;
      peak_live = 0;
      peak_heap = 0;
    }
  in
  if metrics then register_metrics t;
  t

let sample t ~now =
  Footprint.observe_peaks t.probe;
  let st = t.read_stat () in
  let s =
    { (sample_of_stat ~now st) with
      s_entries =
        Footprint.snapshot ~deep:false t.probe
        |> List.map (fun r ->
               (r.Footprint.r_name ^ "/" ^ r.Footprint.r_owner,
                r.Footprint.r_entries))
        |> List.sort compare }
  in
  if s.s_live_words > t.peak_live then t.peak_live <- s.s_live_words;
  if s.s_heap_words > t.peak_heap then t.peak_heap <- s.s_heap_words;
  Bftmetrics.Ring.push t.window s

let samples t = Bftmetrics.Ring.to_list t.window
let last t = Bftmetrics.Ring.last t.window
let sample_count t = Bftmetrics.Ring.pushed t.window
let baseline t = t.base
let peak_live_words t = t.peak_live
let peak_heap_words t = t.peak_heap

let deltas t =
  match last t with
  | None -> []
  | Some s ->
    [
      ("minor_collections",
       float_of_int (s.s_minor_collections - t.base.Gc.minor_collections));
      ("major_collections",
       float_of_int (s.s_major_collections - t.base.Gc.major_collections));
      ("compactions", float_of_int (s.s_compactions - t.base.Gc.compactions));
      ("minor_words", s.s_minor_words -. t.base.Gc.minor_words);
      ("promoted_words", s.s_promoted_words -. t.base.Gc.promoted_words);
    ]

type growth = {
  g_span : Time.t;
  g_live_slope : float;
  g_heap_slope : float;
  g_alloc_rate : float;
  g_culprit : (string * float) option;
}

let growth t =
  match samples t with
  | [] | [ _ ] -> None
  | first :: _ as all ->
    let last = List.nth all (List.length all - 1) in
    let span = Time.sub last.s_at first.s_at in
    if span <= Time.zero then None
    else
      let sec = Time.to_sec_f span in
      let slope a b = (float_of_int b -. float_of_int a) /. sec in
      let culprit =
        List.fold_left
          (fun best (key, e1) ->
            match List.assoc_opt key first.s_entries with
            | None -> best
            | Some e0 ->
              let rate = float_of_int (e1 - e0) /. sec in
              if rate > 0.0
                 && (match best with
                    | None -> true
                    | Some (_, r) -> rate > r)
              then Some (key, rate)
              else best)
          None last.s_entries
      in
      Some
        {
          g_span = span;
          g_live_slope = slope first.s_live_words last.s_live_words;
          g_heap_slope = slope first.s_heap_words last.s_heap_words;
          g_alloc_rate = (last.s_minor_words -. first.s_minor_words) /. sec;
          g_culprit = culprit;
        }

let counter_series t =
  let all = samples t in
  let series f = List.map (fun s -> (s.s_at, f s)) all in
  [
    ("gc.live_words", series (fun s -> float_of_int s.s_live_words));
    ("gc.heap_words", series (fun s -> float_of_int s.s_heap_words));
    ("gc.minor_collections",
     series (fun s -> float_of_int s.s_minor_collections));
    ("gc.major_collections",
     series (fun s -> float_of_int s.s_major_collections));
    ("gc.minor_words", series (fun s -> s.s_minor_words));
  ]

let write_chrome_counters t path =
  Bftmetrics.Chrome.write path
    (List.concat_map
       (fun (name, points) ->
         List.map (fun (ts, value) -> Bftmetrics.Chrome.Counter { name; ts; value }) points)
       (counter_series t))
