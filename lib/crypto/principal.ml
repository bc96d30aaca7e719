type t = Node of int | Client of int

let compare a b =
  match (a, b) with
  | Node x, Node y -> Int.compare x y
  | Client x, Client y -> Int.compare x y
  | Node _, Client _ -> -1
  | Client _, Node _ -> 1

let equal a b = compare a b = 0

let hash = function Node i -> (i * 2) + 1 | Client i -> i * 2

let node i = Node i
let client i = Client i

let index = function Node i -> i | Client i -> i

let pp fmt = function
  | Node i -> Format.fprintf fmt "node%d" i
  | Client i -> Format.fprintf fmt "client%d" i

let to_string t = Format.asprintf "%a" pp t

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)
