(* Per-client request-id set as merged rid ranges. See idset.mli. *)

open Types

module Ranges = struct
  (* The highest range lives in [lo]/[hi] so the common in-order insert
     ([rid = hi + 1]) is two field writes. Every lower range is in
     [los]/[his] at [0, n), ascending, each ending at least two below
     the next one (and the last at least two below [lo]): a lookup
     binary-searches them, and an out-of-order insert extends a range
     in place or shifts the ranges above it by a blit. The arrays only
     grow, so once they have room an insert allocates nothing. Empty
     while [lo > hi]. Comparisons are written so no [+ 1] can overflow:
     [rid - 1 = hi] is only evaluated when [rid > hi], [rid + 1 = lo]
     when [rid < lo]. *)
  type t = {
    mutable lo : int;
    mutable hi : int;
    mutable los : int array;
    mutable his : int array;
    mutable n : int;
  }

  let create () = { lo = 1; hi = 0; los = [||]; his = [||]; n = 0 }

  (* The number of lower ranges starting at or below [rid]: the range
     that may hold it is the one before. *)
  let search r rid =
    let a = ref 0 and b = ref r.n in
    while !a < !b do
      let mid = (!a + !b) / 2 in
      if r.los.(mid) <= rid then a := mid + 1 else b := mid
    done;
    !a

  (* Open the range [rid, rid] at index [k], shifting those above. *)
  let insert r k rid =
    if r.n = Array.length r.los then begin
      let cap = max 4 (2 * r.n) in
      let los = Array.make cap 0 and his = Array.make cap 0 in
      Array.blit r.los 0 los 0 r.n;
      Array.blit r.his 0 his 0 r.n;
      r.los <- los;
      r.his <- his
    end;
    Array.blit r.los k r.los (k + 1) (r.n - k);
    Array.blit r.his k r.his (k + 1) (r.n - k);
    r.los.(k) <- rid;
    r.his.(k) <- rid;
    r.n <- r.n + 1

  (* Drop the lower range at index [k], shifting those above. *)
  let remove r k =
    Array.blit r.los (k + 1) r.los k (r.n - k - 1);
    Array.blit r.his (k + 1) r.his k (r.n - k - 1);
    r.n <- r.n - 1

  (* Insert [rid], with [rid + 1 < lo], among the lower ranges. *)
  let add_below r rid =
    let k = search r rid in
    (* Range [k - 1] starts at or below [rid], range [k] above it. *)
    if k > 0 && rid <= r.his.(k - 1) then 0
    else
      let joins_below = k > 0 && r.his.(k - 1) + 1 = rid in
      let joins_above = k < r.n && rid + 1 = r.los.(k) in
      if joins_below && joins_above then begin
        r.his.(k - 1) <- r.his.(k);
        remove r k;
        -1
      end
      else if joins_below then begin
        r.his.(k - 1) <- rid;
        0
      end
      else if joins_above then begin
        r.los.(k) <- rid;
        0
      end
      else begin
        insert r k rid;
        1
      end

  let add r rid =
    if r.lo > r.hi then begin
      r.lo <- rid;
      r.hi <- rid;
      1
    end
    else if rid > r.hi then
      if rid - 1 = r.hi then begin
        r.hi <- rid;
        0
      end
      else begin
        insert r r.n r.lo;
        r.his.(r.n - 1) <- r.hi;
        r.lo <- rid;
        r.hi <- rid;
        1
      end
    else if rid >= r.lo then 0
    else if rid + 1 = r.lo then
      if r.n > 0 && r.his.(r.n - 1) + 1 = rid then begin
        r.lo <- r.los.(r.n - 1);
        r.n <- r.n - 1;
        -1
      end
      else begin
        r.lo <- rid;
        0
      end
    else add_below r rid

  let mem r rid =
    if rid >= r.lo then rid <= r.hi
    else
      let k = search r rid in
      k > 0 && rid <= r.his.(k - 1)

  let to_list r =
    if r.lo > r.hi then []
    else List.init r.n (fun k -> (r.los.(k), r.his.(k))) @ [ (r.lo, r.hi) ]
end

module Per_client = struct
  (* Client ids are dense (clients are numbered 0..population-1), so
     the primary store is a doubling array. A spoofed id past
     [dense_limit], or a negative one, must not force a gigantic
     allocation: those few fall back to a hashtable. *)
  let dense_limit = 1 lsl 20

  type 'a t = {
    mutable slots : 'a option array;
    overflow : (int, 'a) Hashtbl.t;
    mutable count : int;
  }

  let create () = { slots = [||]; overflow = Hashtbl.create 8; count = 0 }

  let find t client =
    if client >= 0 && client < dense_limit then
      if client < Array.length t.slots then t.slots.(client) else None
    else Hashtbl.find_opt t.overflow client

  let add t client v =
    t.count <- t.count + 1;
    if client >= 0 && client < dense_limit then begin
      if client >= Array.length t.slots then begin
        let cap = max 16 (max (client + 1) (2 * Array.length t.slots)) in
        let a = Array.make cap None in
        Array.blit t.slots 0 a 0 (Array.length t.slots);
        t.slots <- a
      end;
      t.slots.(client) <- Some v
    end
    else Hashtbl.replace t.overflow client v

  let count t = t.count

  let iter f t =
    Array.iteri (fun client -> function Some v -> f client v | None -> ()) t.slots;
    Hashtbl.iter f t.overflow
end

type t = { clients : Ranges.t Per_client.t; mutable ranges : int }

let create () = { clients = Per_client.create (); ranges = 0 }

let add t (id : request_id) =
  let r =
    match Per_client.find t.clients id.client with
    | Some r -> r
    | None ->
      let r = Ranges.create () in
      Per_client.add t.clients id.client r;
      r
  in
  t.ranges <- t.ranges + Ranges.add r id.rid

let mem t (id : request_id) =
  match Per_client.find t.clients id.client with
  | Some r -> Ranges.mem r id.rid
  | None -> false

let range_count t = t.ranges

let ranges t ~client =
  match Per_client.find t.clients client with Some r -> Ranges.to_list r | None -> []

let fold f t acc =
  let acc = ref acc in
  Per_client.iter
    (fun client r ->
      List.iter
        (fun (lo, hi) ->
          for rid = lo to hi do
            acc := f { client; rid } !acc
          done)
        (Ranges.to_list r))
    t.clients;
  !acc
