(* Binary min-heap over int arrays plus a value pool. Heap position [i]
   holds the triple ([keys.(i)], [seqs.(i)], [slots.(i)]); the value of
   that entry lives in [pool.(slots.(i))], and [pos.(slots.(i)) = i]:
   each pool slot knows its heap position, so an entry can be removed
   by its slot. Sifting moves only ints, so a push or pop writes the
   polymorphic pool exactly once: an int store needs no write barrier,
   while every store into a major-heap value array is a [caml_modify].
   The free slots form a stack linked through their own [pos] entries,
   from [free] to [-1], so it needs no array of its own. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pos : int array;
  mutable pool : 'a array;
  mutable free : int;
  mutable size : int;
  mutable peak : int;
}

(* Written into every vacated pool slot so removed values do not stay
   reachable from the pool. It is an immediate integer, so the cast is
   invisible to the GC, and only slots named by a live entry are ever
   read, so it is never observed as an ['a]. The pool is made with it,
   so it is never a flat float array and every access goes through the
   boxed representation. *)
let vacant () : 'a = Obj.magic 0

let create () =
  {
    keys = [||];
    seqs = [||];
    slots = [||];
    pos = [||];
    pool = [||];
    free = -1;
    size = 0;
    peak = 0;
  }

let size h = h.size

let peak h = h.peak

let is_empty h = h.size = 0

(* Link the slots [first .. cap - 1] into the free stack, lowest on
   top; the stack is empty whenever this is called. *)
let link_free h first =
  let cap = Array.length h.pos in
  for i = first to cap - 2 do
    Array.unsafe_set h.pos i (i + 1)
  done;
  if first < cap then Array.unsafe_set h.pos (cap - 1) (-1);
  h.free <- (if first < cap then first else -1)

(* Only called when full, so every pool slot is taken and the free
   stack is empty: the new slots [cap .. new_cap - 1] become it. *)
let grow h =
  let cap = Array.length h.keys in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let extend a fill =
    let b = Array.make new_cap fill in
    Array.blit a 0 b 0 cap;
    b
  in
  h.keys <- extend h.keys 0;
  h.seqs <- extend h.seqs 0;
  h.slots <- extend h.slots 0;
  h.pos <- extend h.pos 0;
  h.pool <- extend h.pool (vacant ());
  link_free h cap

(* Strict total order on entries: primary key first, then the insertion
   sequence number. Callers (the engine) assign [seq] from a monotonic
   counter, so no two live entries ever compare equal — two events
   scheduled for the same instant always pop in insertion order, which
   is what makes replays bit-identical even under heavy timestamp ties
   (property-tested in test_sim.ml). *)
let[@inline] before (k1 : int) (s1 : int) k2 s2 = k1 < k2 || (k1 = k2 && s1 < s2)

(* Hole-based sifting: instead of swapping, the entry being placed
   ([key], [seq]) is held aside while the entries it passes move one
   level into the hole, each taking its slot's position along, and it
   is written once where the hole comes to rest. Both walks return
   that resting position. They are top-level functions of explicit
   arguments, so no closure is allocated per call; every index they
   touch is below [size], which their loop conditions establish. The
   array types are spelled out: an array whose element type is left
   open is read through the float-array check and written through
   [caml_modify]. *)

let[@inline] move (keys : int array) (seqs : int array) (slots : int array)
    (pos : int array) ~src ~dst =
  let slot = Array.unsafe_get slots src in
  Array.unsafe_set keys dst (Array.unsafe_get keys src);
  Array.unsafe_set seqs dst (Array.unsafe_get seqs src);
  Array.unsafe_set slots dst slot;
  Array.unsafe_set pos slot dst

let rec sift_up (keys : int array) (seqs : int array) (slots : int array) (pos : int array)
    ~key ~seq hole =
  if hole = 0 then hole
  else
    let parent = (hole - 1) lsr 1 in
    if before key seq (Array.unsafe_get keys parent) (Array.unsafe_get seqs parent) then begin
      move keys seqs slots pos ~src:parent ~dst:hole;
      sift_up keys seqs slots pos ~key ~seq parent
    end
    else hole

let rec sift_down (keys : int array) (seqs : int array) (slots : int array)
    (pos : int array) ~size ~key ~seq hole =
  let left = (2 * hole) + 1 in
  if left >= size then hole
  else
    let right = left + 1 in
    let child =
      if
        right < size
        && before (Array.unsafe_get keys right) (Array.unsafe_get seqs right)
             (Array.unsafe_get keys left) (Array.unsafe_get seqs left)
      then right
      else left
    in
    if before (Array.unsafe_get keys child) (Array.unsafe_get seqs child) key seq then begin
      move keys seqs slots pos ~src:child ~dst:hole;
      sift_down keys seqs slots pos ~size ~key ~seq child
    end
    else hole

let set h i ~key ~seq slot =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot;
  Array.unsafe_set h.pos slot i

let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h;
  let slot = h.free in
  h.free <- Array.unsafe_get h.pos slot;
  Array.unsafe_set h.pool slot value;
  let hole = sift_up h.keys h.seqs h.slots h.pos ~key ~seq h.size in
  h.size <- h.size + 1;
  if h.size > h.peak then h.peak <- h.size;
  set h hole ~key ~seq slot;
  slot

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  Array.unsafe_get h.keys 0

(* Take the entry in pool slot [slot] out of the heap: empty the slot,
   push it on the free stack, and return the heap's new size, whose
   old last entry must fill the hole the entry left. *)
let release h slot =
  let size = h.size - 1 in
  h.size <- size;
  Array.unsafe_set h.pool slot (vacant ());
  Array.unsafe_set h.pos slot h.free;
  h.free <- slot;
  size

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let slot = Array.unsafe_get h.slots 0 in
  let root = Array.unsafe_get h.pool slot in
  let size = release h slot in
  (* Re-seat the last entry, starting from the hole the root left. *)
  if size > 0 then begin
    let key = Array.unsafe_get h.keys size and seq = Array.unsafe_get h.seqs size in
    set h (sift_down h.keys h.seqs h.slots h.pos ~size ~key ~seq 0) ~key ~seq
      (Array.unsafe_get h.slots size)
  end;
  root

let remove h slot =
  let i = if slot >= 0 && slot < Array.length h.pos then h.pos.(slot) else -1 in
  if i < 0 || i >= h.size || h.slots.(i) <> slot then
    invalid_arg "Heap.remove: slot not queued";
  let size = release h slot in
  (* The last entry fills the hole: up if it precedes the hole's
     parent, else down. *)
  if i < size then begin
    let key = Array.unsafe_get h.keys size and seq = Array.unsafe_get h.seqs size in
    let hole = sift_up h.keys h.seqs h.slots h.pos ~key ~seq i in
    let hole =
      if hole < i then hole else sift_down h.keys h.seqs h.slots h.pos ~size ~key ~seq i
    in
    set h hole ~key ~seq (Array.unsafe_get h.slots size)
  end

let clear h =
  Array.fill h.pool 0 (Array.length h.pool) (vacant ());
  link_free h 0;
  h.size <- 0
