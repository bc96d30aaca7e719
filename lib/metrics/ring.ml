(** Fixed-capacity ring buffer: O(1) push keeping the most recent
    [capacity] items.

    Every bounded history in the system is one of these: the flight
    recorder's streams (audit events, closed spans, metrics
    snapshots), the monitoring measurement history, the auditor's
    report context and the GC sample window. A week-long run holds
    exactly as much of each as a ten-second one. *)

type 'a t = {
  data : 'a option array;
  mutable next : int;  (* slot the next push writes *)
  mutable pushed : int;  (* total pushes over the ring's lifetime *)
}

let create capacity =
  if capacity <= 0 then invalid_arg "Ring.create: capacity must be positive";
  { data = Array.make capacity None; next = 0; pushed = 0 }

let pushed t = t.pushed
let length t = min t.pushed (Array.length t.data)

let push t x =
  t.data.(t.next) <- Some x;
  t.next <- (t.next + 1) mod Array.length t.data;
  t.pushed <- t.pushed + 1

let clear t =
  Array.fill t.data 0 (Array.length t.data) None;
  t.next <- 0;
  t.pushed <- 0

(** Oldest first. *)
let to_list t =
  let cap = Array.length t.data in
  let n = length t in
  let start = ((t.next - n) mod cap + cap) mod cap in
  List.init n (fun i -> Option.get t.data.((start + i) mod cap))

(** The newest item, if any. *)
let last t =
  let cap = Array.length t.data in
  t.data.((t.next + cap - 1) mod cap)
