type t = {
  min_value : float;
  log_gamma : float;
  mutable first : int;  (* the bucket index of [buckets.(0)] *)
  mutable buckets : int array;
  mutable underflow : int;
  mutable count : int;
  mutable sum : float;
  mutable max_observed : float;
}

let create ?(min_value = 1e-6) ?(gamma = 1.05) () =
  {
    min_value;
    log_gamma = log gamma;
    first = 0;
    buckets = [||];
    underflow = 0;
    count = 0;
    sum = 0.0;
    max_observed = 0.0;
  }

let bucket_of t v = int_of_float (log (v /. t.min_value) /. t.log_gamma)

let value_of t i = t.min_value *. exp (t.log_gamma *. (float_of_int i +. 0.5))

(* The bucket array starts empty, so an idle histogram (a registered
   client that never completes a request) costs only its record. It
   covers the buckets from [first] on: the first sample allocates its
   own bucket only, and a later sample outside the array at least
   doubles it towards that sample's side. A latency of a few ms sits
   ~150 buckets above [min_value]; none of the empty ones below the
   lowest sample is stored. *)
let ensure t i =
  let n = Array.length t.buckets in
  if n = 0 then t.first <- i;
  if i < t.first || i >= t.first + n then begin
    let first, last =
      if i < t.first then (Stdlib.max 0 (Stdlib.min i (t.first - n)), t.first + n)
      else (t.first, Stdlib.max (i + 1) (t.first + (2 * n)))
    in
    let bigger = Array.make (last - first) 0 in
    Array.blit t.buckets 0 bigger (t.first - first) n;
    t.first <- first;
    t.buckets <- bigger
  end

let add t v =
  t.count <- t.count + 1;
  t.sum <- t.sum +. v;
  if v > t.max_observed then t.max_observed <- v;
  if v < t.min_value then t.underflow <- t.underflow + 1
  else begin
    let i = bucket_of t v in
    ensure t i;
    let j = i - t.first in
    t.buckets.(j) <- t.buckets.(j) + 1
  end

let count t = t.count

let percentile t p =
  if t.count = 0 then 0.0
  else begin
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.count)) in
    let rank = Stdlib.max 1 (Stdlib.min t.count rank) in
    if rank <= t.underflow then t.min_value
    else begin
      let remaining = ref (rank - t.underflow) in
      let result = ref t.max_observed in
      (try
         Array.iteri
           (fun i n ->
             if n > 0 then begin
               remaining := !remaining - n;
               if !remaining <= 0 then begin
                 result := value_of t (t.first + i);
                 raise Exit
               end
             end)
           t.buckets
       with Exit -> ());
      !result
    end
  end

let mean t = if t.count = 0 then 0.0 else t.sum /. float_of_int t.count
let max_observed t = t.max_observed
let sum t = t.sum

let reset t =
  Array.fill t.buckets 0 (Array.length t.buckets) 0;
  t.underflow <- 0;
  t.count <- 0;
  t.sum <- 0.0;
  t.max_observed <- 0.0

let compatible a b =
  a.min_value = b.min_value && a.log_gamma = b.log_gamma

let merge a b =
  if not (compatible a b) then
    invalid_arg "Hist.merge: different bucket layouts";
  let na = Array.length a.buckets and nb = Array.length b.buckets in
  let first, last =
    if na = 0 then (b.first, b.first + nb)
    else if nb = 0 then (a.first, a.first + na)
    else (Stdlib.min a.first b.first, Stdlib.max (a.first + na) (b.first + nb))
  in
  let buckets = Array.make (last - first) 0 in
  let add h =
    Array.iteri
      (fun i c ->
        let j = h.first - first + i in
        buckets.(j) <- buckets.(j) + c)
      h.buckets
  in
  add a;
  add b;
  {
    min_value = a.min_value;
    log_gamma = a.log_gamma;
    first;
    buckets;
    underflow = a.underflow + b.underflow;
    count = a.count + b.count;
    sum = a.sum +. b.sum;
    max_observed = Stdlib.max a.max_observed b.max_observed;
  }

let copy t = { t with buckets = Array.copy t.buckets }

(* Cumulative count of samples whose value is <= [bound], accurate to
   one bucket width. Drives the fixed-boundary Prometheus exposition:
   monotone in [bound], and exact at the extremes. *)
let cumulative_le t bound =
  if t.count = 0 || bound < t.min_value then 0
  else if bound >= t.max_observed then t.count
  else begin
    let acc = ref t.underflow in
    Array.iteri
      (fun i n -> if n > 0 && value_of t (t.first + i) <= bound then acc := !acc + n)
      t.buckets;
    Stdlib.min !acc t.count
  end
