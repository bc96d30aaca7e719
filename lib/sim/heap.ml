(* Binary min-heap over int arrays plus a value pool. Heap position [i]
   holds the triple ([keys.(i)], [seqs.(i)], [slots.(i)]); the value of
   that entry lives in [pool.(slots.(i))]. Sifting moves only the three
   ints, so a push or pop writes the polymorphic pool exactly once: an
   int store needs no write barrier, while every store into a
   major-heap value array is a [caml_modify]. Free pool slots form a
   stack in [free.(0 .. capacity - size - 1)]. *)
type 'a t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable slots : int array;
  mutable pool : 'a array;
  mutable free : int array;
  mutable size : int;
  mutable peak : int;
}

(* Written into every vacated pool slot so popped values do not stay
   reachable from the pool. It is an immediate integer, so the cast is
   invisible to the GC, and only slots named by a live entry are ever
   read, so it is never observed as an ['a]. The pool is made with it,
   so it is never a flat float array and every access goes through the
   boxed representation. *)
let vacant () : 'a = Obj.magic 0

let create () =
  { keys = [||]; seqs = [||]; slots = [||]; pool = [||]; free = [||]; size = 0; peak = 0 }

let size h = h.size

let peak h = h.peak

let is_empty h = h.size = 0

(* Only called when full, so every pool slot is taken and the free
   stack is empty: the new slots [cap .. new_cap - 1] become the free
   stack, lowest on top. *)
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
  h.pool <- extend h.pool (vacant ());
  h.free <- Array.init new_cap (fun i -> new_cap - 1 - i)

(* Strict total order on entries: primary key first, then the insertion
   sequence number. Callers (the engine) assign [seq] from a monotonic
   counter, so no two live entries ever compare equal — two events
   scheduled for the same instant always pop in insertion order, which
   is what makes replays bit-identical even under heavy timestamp ties
   (property-tested in test_sim.ml). *)
let[@inline] before (k1 : int) (s1 : int) k2 s2 = k1 < k2 || (k1 = k2 && s1 < s2)

(* Hole-based sifting: instead of swapping, the entry being placed
   ([key], [seq]) is held aside while the entries it passes move one
   level into the hole, and it is written once where the hole comes to
   rest. Both walks return that resting position. They are top-level
   functions of explicit arguments, so no closure is allocated per
   call; every index they touch is below [size], which their loop
   conditions establish. The array types are spelled out: an array
   whose element type is left open is read through the float-array
   check and written through [caml_modify]. *)

let rec sift_up (keys : int array) (seqs : int array) (slots : int array) ~key ~seq hole =
  if hole = 0 then hole
  else
    let parent = (hole - 1) lsr 1 in
    let pk = Array.unsafe_get keys parent
    and ps = Array.unsafe_get seqs parent in
    if before key seq pk ps then begin
      Array.unsafe_set keys hole pk;
      Array.unsafe_set seqs hole ps;
      Array.unsafe_set slots hole (Array.unsafe_get slots parent);
      sift_up keys seqs slots ~key ~seq parent
    end
    else hole

let rec sift_down (keys : int array) (seqs : int array) (slots : int array) ~size ~key ~seq
    hole =
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
      Array.unsafe_set slots hole (Array.unsafe_get slots child);
      sift_down keys seqs slots ~size ~key ~seq child
    end
    else hole

let set h i ~key ~seq slot =
  Array.unsafe_set h.keys i key;
  Array.unsafe_set h.seqs i seq;
  Array.unsafe_set h.slots i slot

(* Place the entry ([key], [seq], [slot]) at or below the hole [i]. *)
let settle h i ~key ~seq slot =
  set h (sift_down h.keys h.seqs h.slots ~size:h.size ~key ~seq i) ~key ~seq slot

let push h ~key ~seq value =
  if h.size = Array.length h.keys then grow h;
  let slot = Array.unsafe_get h.free (Array.length h.keys - h.size - 1) in
  Array.unsafe_set h.pool slot value;
  let hole = sift_up h.keys h.seqs h.slots ~key ~seq h.size in
  h.size <- h.size + 1;
  if h.size > h.peak then h.peak <- h.size;
  set h hole ~key ~seq slot

let min_key h =
  if h.size = 0 then invalid_arg "Heap.min_key: empty heap";
  Array.unsafe_get h.keys 0

(* Empty pool slot [slot] and put it back on the free stack, given the
   heap's size after the entry naming it left. *)
let release h slot ~size =
  Array.unsafe_set h.pool slot (vacant ());
  Array.unsafe_set h.free (Array.length h.keys - size - 1) slot

let pop_min h =
  if h.size = 0 then invalid_arg "Heap.pop_min: empty heap";
  let slot = Array.unsafe_get h.slots 0 in
  let root = Array.unsafe_get h.pool slot in
  let size = h.size - 1 in
  h.size <- size;
  release h slot ~size;
  (* Re-seat the last entry, starting from the hole the root left. *)
  if size > 0 then
    settle h 0 ~key:(Array.unsafe_get h.keys size) ~seq:(Array.unsafe_get h.seqs size)
      (Array.unsafe_get h.slots size);
  root

(* Compact the kept entries to the front in array order, then restore
   the heap property bottom-up (Floyd). The pop order is the (key, seq)
   order, a strict total order, so it does not depend on the shape the
   rebuild leaves. *)
let sweep h ~keep =
  let kept = ref 0 in
  for i = 0 to h.size - 1 do
    let slot = Array.unsafe_get h.slots i in
    if keep (Array.unsafe_get h.pool slot) then begin
      set h !kept ~key:(Array.unsafe_get h.keys i) ~seq:(Array.unsafe_get h.seqs i) slot;
      incr kept
    end
    else begin
      h.size <- h.size - 1;
      release h slot ~size:h.size
    end
  done;
  for i = (h.size / 2) - 1 downto 0 do
    settle h i ~key:(Array.unsafe_get h.keys i) ~seq:(Array.unsafe_get h.seqs i)
      (Array.unsafe_get h.slots i)
  done

let clear h =
  let cap = Array.length h.keys in
  Array.fill h.pool 0 cap (vacant ());
  for i = 0 to cap - 1 do
    h.free.(i) <- cap - 1 - i
  done;
  h.size <- 0
