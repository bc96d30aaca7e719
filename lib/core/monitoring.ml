open Dessim

(* Per-client latency averages use an exponential moving average so
   that a long-lived client reflects recent primary behaviour. *)
let ema_alpha = 0.2

type t = {
  params : Params.t;
  mutable master : int;  (* current master instance *)
  counters : int array;  (* nbreqs, one per instance *)
  offered : int array;  (* requests offered per owning instance (bftrcc) *)
  mutable window_start : Time.t;
  (* client -> per-instance EMA latency in seconds, for the Ω check
     only: empty while Ω is disabled *)
  client_lat : (int, float array) Hashtbl.t;
  (* Bounded ring of past measurements: long-lived nodes tick every
     100 ms, so an unbounded list grows without limit. *)
  hist : (Time.t * float array) Bftmetrics.Ring.t;
  mutable recent : float array list;  (* last few windows, for the Δ verdict *)
  mutable offered_recent : float array list;  (* offered rates, same windows *)
}

let history_cap = 4096

let create params =
  {
    params;
    master = Params.master_instance;
    counters = Array.make (Params.instances params) 0;
    offered = Array.make (Params.instances params) 0;
    window_start = Time.zero;
    client_lat = Hashtbl.create 64;
    hist = Bftmetrics.Ring.create history_cap;
    recent = [];
    offered_recent = [];
  }

let note_ordered t ~instance ~count =
  t.counters.(instance) <- t.counters.(instance) + count

(* Concurrent (bftrcc) ordering: record that [count] requests whose
   partition [instance] owns were offered for ordering. The Δ verdict
   then compares each instance's *normalized* rate — observed rate
   divided by its share of the offered load — so a master that owns a
   light partition is not demoted for ordering legitimately little,
   and one that throttles its partition still is. Never calling this
   (redundant mode) leaves the verdict exactly as in the paper. *)
let note_offered t ~instance ~count =
  t.offered.(instance) <- t.offered.(instance) + count

let client_slot t client =
  match Hashtbl.find_opt t.client_lat client with
  | Some arr -> arr
  | None ->
    let arr = Array.make (Params.instances t.params) nan in
    Hashtbl.add t.client_lat client arr;
    arr

let note_latency t ~instance ~client lat =
  if t.params.Params.omega > Time.zero then begin
    let arr = client_slot t client in
    let l = Time.to_sec_f lat in
    arr.(instance) <-
      (if Float.is_nan arr.(instance) then l
       else ((1.0 -. ema_alpha) *. arr.(instance)) +. (ema_alpha *. l))
  end

type verdict = {
  rates : float array;
  master_rate : float;
  backup_rate : float;
  ratio : float;
  suspicious : bool;
  weights : float array;
      (* per-instance share of the offered load used to normalize the
         rates; uniform (1/instances) when no offered traffic was
         recorded, i.e. in redundant mode *)
}

(* Below this share of the offered load an instance's normalized rate
   is noise (division by a near-zero weight): it is left out of the
   backup average, and a master below it is never judged suspicious. *)
let min_weight_share = 0.05

(* Below this backup throughput (req/s) the Δ test is not applied:
   with no meaningful traffic the ratio is noise. *)
let min_meaningful_rate = 50.0

let backup_mean ~master rates =
  let n = Array.length rates in
  if n <= 1 then 0.0
  else begin
    let sum = ref 0.0 in
    Array.iteri (fun i r -> if i <> master then sum := !sum +. r) rates;
    !sum /. float_of_int (n - 1)
  end

let tick t ~now =
  let window = Time.to_sec_f (Time.sub now t.window_start) in
  let per_window counters =
    Array.map
      (fun c -> if window <= 0.0 then 0.0 else float_of_int c /. window)
      counters
  in
  let rates = per_window t.counters in
  let offered_rates = per_window t.offered in
  Array.fill t.counters 0 (Array.length t.counters) 0;
  Array.fill t.offered 0 (Array.length t.offered) 0;
  t.window_start <- now;
  Bftmetrics.Ring.push t.hist (now, rates);
  (* The Δ verdict uses a short moving average: single 100 ms windows
     carry several percent of sampling noise at moderate rates, which
     would make any Δ close to 1 fire spuriously. *)
  t.recent <- rates :: (match t.recent with a :: b :: _ -> [ a; b ] | l -> l);
  t.offered_recent <-
    offered_rates
    :: (match t.offered_recent with a :: b :: _ -> [ a; b ] | l -> l);
  let n_inst = Array.length rates in
  let average windows =
    let avg = Array.make n_inst 0.0 in
    List.iter
      (fun r -> Array.iteri (fun i v -> avg.(i) <- avg.(i) +. v) r)
      windows;
    let k = float_of_int (List.length windows) in
    Array.iteri (fun i v -> avg.(i) <- v /. k) avg;
    avg
  in
  let averaged = average t.recent in
  (* Partition weights: each instance's share of the offered load over
     the same moving window. With no offered traffic recorded
     (redundant mode, or a cold start) the weights are uniform and the
     normalization below is the identity. *)
  let offered_avg = average t.offered_recent in
  let offered_total = Array.fold_left ( +. ) 0.0 offered_avg in
  let uniform = 1.0 /. float_of_int n_inst in
  let weights =
    if offered_total <= 0.0 then Array.make n_inst uniform
    else Array.map (fun v -> v /. offered_total) offered_avg
  in
  let weighted = offered_total > 0.0 in
  (* Normalized rate: observed rate scaled as if every instance saw a
     uniform share of the load. Uniform weights make this the raw
     rate, so the redundant-mode Δ test is unchanged. *)
  let norm i =
    if weights.(i) < min_weight_share then Float.nan
    else averaged.(i) *. (uniform /. weights.(i))
  in
  let master_norm = norm t.master in
  let master_rate = averaged.(t.master) in
  let backups = ref 0 in
  let backup_norm =
    let sum = ref 0.0 in
    Array.iteri
      (fun i _ ->
        if i <> t.master then begin
          let v = norm i in
          if not (Float.is_nan v) then begin
            sum := !sum +. v;
            incr backups
          end
        end)
      averaged;
    if !backups = 0 then 0.0 else !sum /. float_of_int !backups
  in
  (* Raw mean over all backups, reported for observability (the
     verdict's decision uses the normalized figures). *)
  let backup_rate = backup_mean ~master:t.master averaged in
  let suspicious =
    (not (Float.is_nan master_norm))
    && backup_norm >= min_meaningful_rate
    && master_norm < t.params.Params.delta *. backup_norm
  in
  (* The quantity the Δ test compares against the threshold; NaN when
     the backups are idle and the test is not applied. *)
  let ratio =
    if Float.is_nan master_norm then Float.nan
    else if backup_norm > 0.0 then master_norm /. backup_norm
    else Float.nan
  in
  let master_rate =
    if weighted && not (Float.is_nan master_norm) then master_norm
    else master_rate
  in
  let backup_rate = if weighted then backup_norm else backup_rate in
  { rates; master_rate; backup_rate; ratio; suspicious; weights }

let lambda_violation t ~latency =
  t.params.Params.lambda > Time.zero && latency > t.params.Params.lambda

let omega_violation t ~client =
  if t.params.Params.omega = Time.zero then false
  else
    match Hashtbl.find_opt t.client_lat client with
    | None -> false
    | Some arr ->
      let master = arr.(t.master) in
      if Float.is_nan master then false
      else begin
        let sum = ref 0.0 and count = ref 0 in
        Array.iteri
          (fun i l ->
            if i <> t.master && not (Float.is_nan l) then begin
              sum := !sum +. l;
              incr count
            end)
          arr;
        if !count = 0 then false
        else
          let backup_avg = !sum /. float_of_int !count in
          master -. backup_avg > Time.to_sec_f t.params.Params.omega
      end

let set_master t instance = t.master <- instance

let history t = Bftmetrics.Ring.to_list t.hist
let latest t = Bftmetrics.Ring.last t.hist

let client_count t = Hashtbl.length t.client_lat

let register_probes t probe ~owner =
  ignore
    (Bftmetrics.Probe.footprint probe ~owner ~name:"monitoring.client_lat"
       ~entries:(fun () -> Hashtbl.length t.client_lat)
       ~root:(fun () -> Some (Obj.repr t.client_lat))
       ());
  ignore
    (Bftmetrics.Probe.footprint probe ~owner ~name:"monitoring.history"
       ~entries:(fun () -> Bftmetrics.Ring.length t.hist)
       ~root:(fun () -> Some (Obj.repr t.hist))
       ())
