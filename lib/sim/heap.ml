(* Struct-of-arrays binary min-heap. Slot [i] of the heap is the triple
   ([keys.(i)], [seqs.(i)], [values.(i)]): the priorities live in two
   unboxed int arrays, so comparing and moving them allocates nothing,
   and no per-entry record exists at all. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

(* Written into every vacated value slot so popped values do not stay
   reachable from the backing array. It is an immediate integer, so the
   cast is invisible to the GC, and [size] guards every read, so it is
   never observed as an ['a]. The value array is made with it, so the
   array is never a flat float array and every access goes through the
   boxed representation. *)
let vacant () : 'a = Obj.magic 0

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0 }

let size h = h.size

let is_empty h = h.size = 0

let grow h =
  let cap = Array.length h.keys in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let keys = Array.make new_cap 0
  and seqs = Array.make new_cap 0
  and values = Array.make new_cap (vacant ()) in
  Array.blit h.keys 0 keys 0 h.size;
  Array.blit h.seqs 0 seqs 0 h.size;
  Array.blit h.values 0 values 0 h.size;
  h.keys <- keys;
  h.seqs <- seqs;
  h.values <- values

(* Strict total order on slots: primary key first, then the insertion
   sequence number. Callers (the engine) assign [seq] from a monotonic
   counter, so no two live slots ever compare equal — two events
   scheduled for the same instant always pop in insertion order, which
   is what makes replays bit-identical even under heavy timestamp ties
   (property-tested in test_sim.ml). *)
let[@inline] before (k1 : int) (s1 : int) k2 s2 = k1 < k2 || (k1 = k2 && s1 < s2)

(* Hole-based sifting: instead of swapping, the entry being placed
   ([key], [seq]) is held aside while the slots it passes move one
   level into the hole, and it is written once where the hole comes to
   rest. Both walks return that resting slot. They are top-level
   functions of explicit arguments, so no closure is allocated per
   call; every index they touch is below [size], which their loop
   conditions establish. *)

let rec sift_up keys seqs values ~key ~seq hole =
  if hole = 0 then hole
  else
    let parent = (hole - 1) lsr 1 in
    let pk = Array.unsafe_get keys parent
    and ps = Array.unsafe_get seqs parent in
    if before key seq pk ps then begin
      Array.unsafe_set keys hole pk;
      Array.unsafe_set seqs hole ps;
      Array.unsafe_set values hole (Array.unsafe_get values parent);
      sift_up keys seqs values ~key ~seq parent
    end
    else hole

let rec sift_down keys seqs values ~size ~key ~seq hole =
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
    let ck = Array.unsafe_get keys child
    and cs = Array.unsafe_get seqs child in
    if before ck cs key seq then begin
      Array.unsafe_set keys hole ck;
      Array.unsafe_set seqs hole cs;
      Array.unsafe_set values hole (Array.unsafe_get values child);
      sift_down keys seqs values ~size ~key ~seq child
    end
    else hole

let set h i ~key ~seq value =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.values i value

let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h;
  let hole = sift_up h.keys h.seqs h.values ~key ~seq h.size in
  h.size <- h.size + 1;
  set h hole ~key ~seq value

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  Array.unsafe_get h.keys 0

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let root = Array.unsafe_get h.values 0 in
  let size = h.size - 1 in
  h.size <- size;
  (* Re-seat the last slot, starting from the hole the root left. *)
  let key = Array.unsafe_get h.keys size
  and seq = Array.unsafe_get h.seqs size
  and value = Array.unsafe_get h.values size in
  Array.unsafe_set h.values size (vacant ());
  if size > 0 then
    set h (sift_down h.keys h.seqs h.values ~size ~key ~seq 0) ~key ~seq value;
  root

let clear h =
  Array.fill h.values 0 h.size (vacant ());
  h.size <- 0
