(* Labeled metric families. A family (name, kind, help) is registered
   once and owns one child instrument per distinct label set; the
   child handle is what instrumented code keeps, so a hot-path update
   is a single field mutation with no lookup and no allocation.

   Collection is gated by the owning probe's metrics switch, not
   here. *)

module Counter = struct
  type t = { mutable value : int }

  let make () = { value = 0 }
  let inc c = c.value <- c.value + 1
  let add c n = c.value <- c.value + n
  let value c = c.value
  let reset c = c.value <- 0
end

module Gauge = struct
  (* A single mutable float field keeps the record in flat float
     representation: [set] does not allocate. *)
  type t = { mutable value : float }

  let make () = { value = 0.0 }
  let set g v = g.value <- v
  let add g v = g.value <- g.value +. v
  let value g = g.value
  let reset g = g.value <- 0.0
end

type labels = (string * string) list

type kind = Counter_kind | Gauge_kind | Histogram_kind

let kind_name = function
  | Counter_kind -> "counter"
  | Gauge_kind -> "gauge"
  | Histogram_kind -> "histogram"

type instrument =
  | Counter_i of Counter.t
  | Gauge_i of Gauge.t
  (* The closure is read at sample/export time only — zero hot-path
     cost; re-registration replaces it (fresh cluster, same name). *)
  | Gauge_fn_i of (unit -> float) ref
  | Histogram_i of Hist.t

type family = {
  name : string;
  help : string;
  kind : kind;
  mutable label_names : string list;  (* sorted; fixed by first child *)
  children : (string, labels * instrument) Hashtbl.t;  (* key: label values *)
}

type t = {
  families : (string, family) Hashtbl.t;
  mutable order : string list;  (* registration order, reversed *)
}

let create () = { families = Hashtbl.create 64; order = [] }

let canonical labels = List.sort (fun (a, _) (b, _) -> compare a b) labels
let child_key labels = String.concat "\x00" (List.map snd labels)

let family_of t ~name ~help ~kind ~labels =
  let labels = canonical labels in
  let names = List.map fst labels in
  let fam =
    match Hashtbl.find_opt t.families name with
    | Some fam ->
      if fam.kind <> kind then
        invalid_arg
          (Printf.sprintf "Registry: %s already registered as a %s" name
             (kind_name fam.kind));
      if fam.label_names <> names && Hashtbl.length fam.children > 0 then
        invalid_arg
          (Printf.sprintf "Registry: %s registered with label set {%s}, got {%s}"
             name
             (String.concat "," fam.label_names)
             (String.concat "," names));
      fam
    | None ->
      let fam =
        { name; help; kind; label_names = names; children = Hashtbl.create 8 }
      in
      Hashtbl.add t.families name fam;
      t.order <- name :: t.order;
      fam
  in
  fam.label_names <- names;
  (fam, labels)

(* Registration returns the existing child for a (name, labels) pair
   already seen, so per-run components re-created against the global
   registry keep accumulating into the same series. *)
let child t ~name ~help ~kind ~labels make =
  let fam, labels = family_of t ~name ~help ~kind ~labels in
  let key = child_key labels in
  match Hashtbl.find_opt fam.children key with
  | Some (_, i) -> i
  | None ->
    let i = make () in
    Hashtbl.add fam.children key (labels, i);
    i

let counter ?(help = "") t name ~labels =
  match
    child t ~name ~help ~kind:Counter_kind ~labels (fun () ->
        Counter_i (Counter.make ()))
  with
  | Counter_i c -> c
  | _ -> assert false

let gauge ?(help = "") t name ~labels =
  match
    child t ~name ~help ~kind:Gauge_kind ~labels (fun () -> Gauge_i (Gauge.make ()))
  with
  | Gauge_i g -> g
  | _ -> assert false

let gauge_fn ?(help = "") t name ~labels f =
  match
    child t ~name ~help ~kind:Gauge_kind ~labels (fun () -> Gauge_fn_i (ref f))
  with
  | Gauge_fn_i cell -> cell := f
  | Gauge_i _ ->
    invalid_arg
      (Printf.sprintf "Registry: %s{%s} already registered as a plain gauge" name
         (child_key (canonical labels)))
  | _ -> assert false

let histogram ?(help = "") ?min_value ?gamma t name ~labels =
  match
    child t ~name ~help ~kind:Histogram_kind ~labels (fun () ->
        Histogram_i (Hist.create ?min_value ?gamma ()))
  with
  | Histogram_i h -> h
  | _ -> assert false

(* ------------------------------------------------------------------ *)
(* Introspection (exporters, sampler, tests)                          *)
(* ------------------------------------------------------------------ *)

let families t =
  List.rev_map (fun name -> Hashtbl.find t.families name) t.order

let family_name f = f.name
let family_help f = f.help
let family_kind f = f.kind

let children_of f =
  Hashtbl.fold (fun _ c acc -> c :: acc) f.children []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

type hist_summary = {
  h_count : int;
  h_sum : float;
  h_mean : float;
  h_p50 : float;
  h_p90 : float;
  h_p99 : float;
  h_max : float;
}

let summarize h =
  {
    h_count = Hist.count h;
    h_sum = Hist.sum h;
    h_mean = Hist.mean h;
    h_p50 = Hist.percentile h 50.0;
    h_p90 = Hist.percentile h 90.0;
    h_p99 = Hist.percentile h 99.0;
    h_max = Hist.max_observed h;
  }

type value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of hist_summary

type sample = { s_name : string; s_labels : labels; s_value : value }

let snapshot t =
  List.concat_map
    (fun f ->
      List.map
        (fun (labels, i) ->
          let value =
            match i with
            | Counter_i c -> Counter_v (Counter.value c)
            | Gauge_i g -> Gauge_v (Gauge.value g)
            | Gauge_fn_i fn -> Gauge_v (!fn ())
            | Histogram_i h -> Histogram_v (summarize h)
          in
          { s_name = f.name; s_labels = labels; s_value = value })
        (children_of f))
    (families t)

(* ------------------------------------------------------------------ *)
(* Reset and merge                                                    *)
(* ------------------------------------------------------------------ *)

(* Zero the values but keep families and children: handles held by
   live components stay valid across a reset. Callback gauges are
   left alone — they re-read their source on the next sample. *)
let reset t =
  Hashtbl.iter
    (fun _ f ->
      Hashtbl.iter
        (fun _ (_, i) ->
          match i with
          | Counter_i c -> Counter.reset c
          | Gauge_i g -> Gauge.reset g
          | Gauge_fn_i _ -> ()
          | Histogram_i h -> Hist.reset h)
        f.children)
    t.families
