(* Compact per-client reply cache. See replycache.mli. *)

type entry = {
  (* Executed rids, exact under any execution order ({!Idset.Ranges}). *)
  ranges : Idset.Ranges.t;
  (* Ring of the last [window] (rid, result) pairs for re-replies;
     -1 = empty slot. *)
  rids : int array;
  results : string array;
  mutable next : int;
}

type t = { window : int; entries : entry Idset.Per_client.t }

let create ?(window = 4) () =
  { window = max 1 window; entries = Idset.Per_client.create () }

let ensure t client =
  match Idset.Per_client.find t.entries client with
  | Some e -> e
  | None ->
    let e =
      {
        ranges = Idset.Ranges.create ();
        rids = Array.make t.window (-1);
        results = Array.make t.window "";
        next = 0;
      }
    in
    Idset.Per_client.add t.entries client e;
    e

let mark t ~client ~rid ~result =
  let e = ensure t client in
  ignore (Idset.Ranges.add e.ranges rid);
  e.rids.(e.next) <- rid;
  e.results.(e.next) <- result;
  e.next <- (e.next + 1) mod t.window

let seen t ~client ~rid =
  match Idset.Per_client.find t.entries client with
  | None -> false
  | Some e -> Idset.Ranges.mem e.ranges rid

let find t ~client ~rid =
  match Idset.Per_client.find t.entries client with
  | None -> None
  | Some e ->
    let res = ref None in
    Array.iteri (fun i r -> if r = rid then res := Some e.results.(i)) e.rids;
    !res

let clients t = Idset.Per_client.count t.entries
let window t = t.window

let ranges t ~client =
  match Idset.Per_client.find t.entries client with
  | None -> []
  | Some e -> Idset.Ranges.to_list e.ranges

let fold_ids f t acc =
  let acc = ref acc in
  Idset.Per_client.iter
    (fun client e ->
      List.iter
        (fun (lo, hi) ->
          for rid = lo to hi do
            acc := f ~client ~rid !acc
          done)
        (Idset.Ranges.to_list e.ranges))
    t.entries;
  !acc
