type 'a entry = { key : int; seq : int; value : 'a }

type 'a t = { mutable data : 'a entry array; mutable size : int }

let create () = { data = [||]; size = 0 }

let size h = h.size

let is_empty h = h.size = 0

(* Strict total order on entries: primary key first, then the
   insertion sequence number. Callers (the engine) assign [seq] from a
   monotonic counter, so no two live entries ever compare equal — two
   events scheduled for the same instant always pop in insertion
   order, which is what makes replays bit-identical even under heavy
   timestamp ties (property-tested in test_sim.ml). *)
let less a b = a.key < b.key || (a.key = b.key && a.seq < b.seq)

(* A single shared placeholder written into vacated slots so popped
   values do not stay reachable from the backing array. Its [value]
   field is an immediate integer, so the unsafe cast is invisible to the
   GC, and [size] guards every read, so the placeholder is never
   observed as an ['a entry]. *)
let dummy_obj : Obj.t entry = { key = min_int; seq = min_int; value = Obj.repr 0 }
let dummy () : 'a entry = Obj.magic dummy_obj

let grow h =
  let cap = Array.length h.data in
  let new_cap = if cap = 0 then 64 else cap * 2 in
  let data = Array.make new_cap (dummy ()) in
  Array.blit h.data 0 data 0 h.size;
  h.data <- data

let push h ~key ~seq value =
  let entry = { key; seq; value } in
  if h.size = 0 && Array.length h.data = 0 then
    h.data <- Array.make 64 (dummy ());
  if h.size = Array.length h.data then grow h;
  let i = ref h.size in
  h.size <- h.size + 1;
  h.data.(!i) <- entry;
  (* Sift up. *)
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if less h.data.(!i) h.data.(parent) then begin
      let tmp = h.data.(parent) in
      h.data.(parent) <- h.data.(!i);
      h.data.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

let pop h =
  if h.size = 0 then None
  else begin
    let root = h.data.(0) in
    h.size <- h.size - 1;
    if h.size > 0 then begin
      h.data.(0) <- h.data.(h.size);
      h.data.(h.size) <- dummy ();
      (* Sift down. *)
      let i = ref 0 in
      let continue = ref true in
      while !continue do
        let left = (2 * !i) + 1 and right = (2 * !i) + 2 in
        let smallest = ref !i in
        if left < h.size && less h.data.(left) h.data.(!smallest) then
          smallest := left;
        if right < h.size && less h.data.(right) h.data.(!smallest) then
          smallest := right;
        if !smallest <> !i then begin
          let tmp = h.data.(!smallest) in
          h.data.(!smallest) <- h.data.(!i);
          h.data.(!i) <- tmp;
          i := !smallest
        end
        else continue := false
      done
    end
    else h.data.(0) <- dummy ();
    Some (root.key, root.seq, root.value)
  end

let peek_key h = if h.size = 0 then None else Some h.data.(0).key

let clear h =
  Array.fill h.data 0 h.size (dummy ());
  h.size <- 0
