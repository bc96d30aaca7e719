(* Timestamps are stored as a sorted array of (time, cumulative count)
   breakpoints, appended in order and binary-searched on query.

   Windows are half-open [start, stop): adjacent windows tile exactly
   (count [a,b) + count [b,c) = count [a,c)) and a partition of
   [zero, horizon) with horizon past the last event sums to [total].

   A window starts with no arrays at all: most registered clients of a
   large population never complete a request, and an empty window
   costs only its record. The first [record] allocates a 1024-slot
   block, and each later overflow doubles it. (Smaller first blocks
   cost the busy windows more heap: the chain of short arrays they
   outgrow is promoted and then left behind.) *)

type t = {
  mutable times : Dessim.Time.t array;
  mutable cumulative : int array;
  mutable len : int;
  mutable total : int;
}

let create () = { times = [||]; cumulative = [||]; len = 0; total = 0 }

let first_block = 1024

let grow t =
  let cap = Stdlib.max first_block (2 * Array.length t.times) in
  let times = Array.make cap 0 in
  let cumulative = Array.make cap 0 in
  Array.blit t.times 0 times 0 t.len;
  Array.blit t.cumulative 0 cumulative 0 t.len;
  t.times <- times;
  t.cumulative <- cumulative

let record_many t ~now n =
  assert (n >= 0);
  if n > 0 then begin
    (* The binary search requires sorted breakpoints. A caller whose
       clock stepped backwards (merged streams, replays) is clamped to
       the last breakpoint instead of silently corrupting queries. *)
    let now =
      if t.len > 0 && now < t.times.(t.len - 1) then t.times.(t.len - 1) else now
    in
    t.total <- t.total + n;
    if t.len > 0 && t.times.(t.len - 1) = now then
      t.cumulative.(t.len - 1) <- t.total
    else begin
      if t.len = Array.length t.times then grow t;
      t.times.(t.len) <- now;
      t.cumulative.(t.len) <- t.total;
      t.len <- t.len + 1
    end
  end

let record t ~now = record_many t ~now 1

let total t = t.total

(* Number of events with time < bound. *)
let cumulative_before t bound =
  let lo = ref 0 and hi = ref t.len in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if t.times.(mid) < bound then lo := mid + 1 else hi := mid
  done;
  if !lo = 0 then 0 else t.cumulative.(!lo - 1)

let count_between t start stop =
  if stop <= start then 0
  else cumulative_before t stop - cumulative_before t start

let rate_between t start stop =
  let window = Dessim.Time.to_sec_f (Dessim.Time.sub stop start) in
  if window <= 0.0 || not (Float.is_finite window) then 0.0
  else float_of_int (count_between t start stop) /. window
