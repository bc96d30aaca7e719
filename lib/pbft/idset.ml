(* Per-client request-id set as merged rid ranges. See idset.mli. *)

open Types

module Ranges = struct
  (* The highest range lives in [lo]/[hi] so the common in-order insert
     ([rid = hi + 1]) is two field writes; [below] holds every lower
     range, highest first, each ending at least two below the range
     above it. Empty while [lo > hi]. Comparisons are written so no
     [+ 1] can overflow: [rid - 1 = hi] is only evaluated when
     [rid > hi], [rid + 1 = lo] when [rid < lo]. *)
  type t = {
    mutable lo : int;
    mutable hi : int;
    mutable below : (int * int) list;
  }

  let create () = { lo = 1; hi = 0; below = [] }

  (* Insert into a highest-first list of ranges, each ending at least
     two below the range above it; the caller guarantees [rid] + 1 is
     below that range. [grew] receives the change in the number of
     ranges (it starts at 0). Only the cons cells above the insertion
     point are rebuilt. *)
  let rec insert_below grew rid = function
    | [] -> grew := 1; [ (rid, rid) ]
    | ((l, h) as range) :: rest as all ->
      if rid > h then if rid - 1 = h then (l, rid) :: rest else (grew := 1; (rid, rid) :: all)
      else if rid >= l then all
      else if rid + 1 = l then
        match rest with
        | (l2, h2) :: rest2 when h2 + 1 = rid -> grew := -1; (l2, h) :: rest2
        | _ -> (rid, h) :: rest
      else range :: insert_below grew rid rest

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
        r.below <- (r.lo, r.hi) :: r.below;
        r.lo <- rid;
        r.hi <- rid;
        1
      end
    else if rid >= r.lo then 0
    else if rid + 1 = r.lo then begin
      r.lo <- rid;
      match r.below with
      | (l, h) :: rest when h + 1 = rid ->
        r.lo <- l;
        r.below <- rest;
        -1
      | _ -> 0
    end
    else begin
      let grew = ref 0 in
      r.below <- insert_below grew rid r.below;
      !grew
    end

  let rec mem_below rid = function
    | [] -> false
    | (l, h) :: rest -> if rid > h then false else rid >= l || mem_below rid rest

  let mem r rid = (rid >= r.lo && rid <= r.hi) || (rid < r.lo && mem_below rid r.below)

  let to_list r = if r.lo > r.hi then [] else List.rev ((r.lo, r.hi) :: r.below)
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
