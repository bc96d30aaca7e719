(* Breakpoints (time, cumulative count), one per distinct instant,
   stored as LEB128 varint deltas in fixed-size byte chunks. See
   throughput.mli for the cost per breakpoint.

   Windows are half-open [start, stop): adjacent windows tile exactly
   (count [a,b) + count [b,c) = count [a,c)) and a partition of
   [zero, horizon) with horizon past the last event sums to [total].

   The newest breakpoint stays unencoded in [last]/[total]: records at
   the same instant merge into it, and a clock that steps back is
   clamped to it. A later instant encodes it and takes its place.

   Every chunk starts with a breakpoint kept whole in [heads] (its time
   and cumulative count); the chunk's bytes hold the breakpoints after
   it as (time delta, count delta) varint pairs. Both deltas are at
   least 1, so a zero byte starts no pair: a chunk's unused tail is
   left zero-filled and ends its decoding. A chunk is never copied or
   resized once allocated; only the [chunks] and [heads] arrays, one
   slot and two ints per chunk, double as chunks are added.

   A window starts with no stream at all: most registered clients of a
   large population never complete a request, and an idle window costs
   only its record. *)

(* With the padding byte every string carries, 255 bytes fill exactly
   32 words. *)
let chunk_bytes = 255

type stream = {
  mutable chunks : Bytes.t array;
  mutable heads : int array;
      (* [heads.(2k)] is the time of chunk [k]'s first breakpoint,
         [heads.(2k + 1)] the cumulative count at it. *)
  mutable used : int;  (* chunks in use; the last one is written *)
  mutable pos : int;  (* next free byte of the last chunk *)
  mutable prev_time : Dessim.Time.t;  (* the last encoded breakpoint *)
  mutable prev_count : int;
}

type t = {
  mutable last : Dessim.Time.t;  (* the newest breakpoint's time *)
  mutable total : int;  (* its cumulative count; 0 before any event *)
  mutable stream : stream option;  (* every older breakpoint *)
}

let create () = { last = Dessim.Time.zero; total = 0; stream = None }

let rec varint_size v = if v < 0x80 then 1 else 1 + varint_size (v lsr 7)

(* Write [v >= 0] at [pos]; returns the next free position. *)
let rec put b pos v =
  if v < 0x80 then begin
    Bytes.set b pos (Char.unsafe_chr v);
    pos + 1
  end
  else begin
    Bytes.set b pos (Char.unsafe_chr ((v land 0x7f) lor 0x80));
    put b (pos + 1) (v lsr 7)
  end

(* Start a chunk whose first breakpoint is [(time, count)]. *)
let open_chunk s time count =
  if s.used = Array.length s.chunks then begin
    let cap = max 1 (2 * s.used) in
    let chunks = Array.make cap Bytes.empty and heads = Array.make (2 * cap) 0 in
    Array.blit s.chunks 0 chunks 0 s.used;
    Array.blit s.heads 0 heads 0 (2 * s.used);
    s.chunks <- chunks;
    s.heads <- heads
  end;
  s.chunks.(s.used) <- Bytes.make chunk_bytes '\000';
  s.heads.(2 * s.used) <- time;
  s.heads.((2 * s.used) + 1) <- count;
  s.used <- s.used + 1;
  s.pos <- 0

(* Append breakpoint [(time, count)], later and larger than every
   encoded one. *)
let encode t time count =
  match t.stream with
  | None ->
    let s =
      { chunks = [||]; heads = [||]; used = 0; pos = 0; prev_time = time; prev_count = count }
    in
    open_chunk s time count;
    t.stream <- Some s
  | Some s ->
    let dt = time - s.prev_time and dc = count - s.prev_count in
    if s.pos + varint_size dt + varint_size dc > chunk_bytes then open_chunk s time count
    else begin
      let b = s.chunks.(s.used - 1) in
      s.pos <- put b (put b s.pos dt) dc
    end;
    s.prev_time <- time;
    s.prev_count <- count

let record_many t ~now n =
  assert (n >= 0);
  if n > 0 then begin
    (* Queries need sorted breakpoints. A caller whose clock stepped
       backwards (merged streams, replays) is clamped to the newest
       breakpoint instead of silently corrupting them. *)
    if t.total = 0 then t.last <- now
    else if now > t.last then begin
      encode t t.last t.total;
      t.last <- now
    end;
    t.total <- t.total + n
  end

let record t ~now = record_many t ~now 1

let total t = t.total

(* Read the varint at [!pos] and advance [pos] past it. *)
let get b pos =
  let v = ref 0 and shift = ref 0 and byte = ref 0x80 in
  while !byte land 0x80 <> 0 do
    byte := Char.code (Bytes.get b !pos);
    v := !v lor ((!byte land 0x7f) lsl !shift);
    shift := !shift + 7;
    incr pos
  done;
  !v

(* Cumulative count at the last breakpoint of chunk [k] before [bound],
   given that the chunk's first breakpoint is before it. *)
let scan s k bound =
  let b = s.chunks.(k) in
  let time = ref s.heads.(2 * k) and count = ref s.heads.((2 * k) + 1) in
  let pos = ref 0 and fin = ref false in
  while (not !fin) && !pos < chunk_bytes && Bytes.get b !pos <> '\000' do
    let dt = get b pos in
    let dc = get b pos in
    if !time + dt >= bound then fin := true
    else begin
      time := !time + dt;
      count := !count + dc
    end
  done;
  !count

(* Number of events with time < bound. *)
let cumulative_before t bound =
  if t.total = 0 then 0
  else if t.last < bound then t.total
  else
    match t.stream with
    | None -> 0
    | Some s ->
      (* The last chunk whose first breakpoint is before [bound]. *)
      let lo = ref 0 and hi = ref s.used in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if s.heads.(2 * mid) < bound then lo := mid + 1 else hi := mid
      done;
      if !lo = 0 then 0 else scan s (!lo - 1) bound

let count_between t start stop =
  if stop <= start then 0
  else cumulative_before t stop - cumulative_before t start

let rate_between t start stop =
  let window = Dessim.Time.to_sec_f (Dessim.Time.sub stop start) in
  if window <= 0.0 || not (Float.is_finite window) then 0.0
  else float_of_int (count_between t start stop) /. window
