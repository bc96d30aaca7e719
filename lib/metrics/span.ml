(** One span: a tagged interval of virtual time belonging to one
    request's trace.

    Spans form a tree per request: the root is the client span (submit
    to f+1 matching replies) and children link to their parent by span
    id. Ids are allocated in emission order by {!Tracer}, which makes
    the JSONL serialisation of a run deterministic. A span with
    [t1 < 0] is still open — for a request that was dropped, or work
    still in flight when the simulation stopped. *)

open Dessim

type t = {
  id : int;
  parent : int;  (** parent span id, [-1] for a trace root *)
  client : int;
  rid : int;  (** request id within the client, copied from the root *)
  node : int;  (** executing node, [-1] for client-side spans *)
  instance : int;  (** protocol instance, [-1] if not instance-scoped *)
  tag : Tag.t;
  mutable t0 : Time.t;
  mutable t1 : Time.t;  (** [< 0] while the span is open *)
}

let none = Time.ns (-1)
let is_open s = s.t1 < Time.zero

let dummy =
  {
    id = -1;
    parent = -1;
    client = -1;
    rid = -1;
    node = -1;
    instance = -1;
    tag = Tag.Other;
    t0 = Time.zero;
    t1 = none;
  }

let duration s = if is_open s then Time.zero else Time.sub s.t1 s.t0

(* Buffer-based rendering: a full 1/1 capture serialises millions of
   spans (digest, JSONL export), where [Printf.sprintf] alone costs more
   than the hashing. *)
let write_json buf s =
  let int k v =
    Buffer.add_string buf k;
    Buffer.add_string buf (string_of_int v)
  in
  int {|{"id":|} s.id;
  int {|,"parent":|} s.parent;
  int {|,"client":|} s.client;
  int {|,"rid":|} s.rid;
  int {|,"node":|} s.node;
  int {|,"instance":|} s.instance;
  Buffer.add_string buf {|,"tag":"|};
  Buffer.add_string buf (Tag.name s.tag);
  int {|","t0":|} (s.t0 : Time.t);
  int {|,"t1":|} (s.t1 : Time.t);
  Buffer.add_char buf '}'

let to_json s =
  let buf = Buffer.create 128 in
  write_json buf s;
  Buffer.contents buf

(* Hand-rolled flat-object JSONL parsing (the repository deliberately
   carries no JSON dependency). Robust to field reordering and extra
   whitespace, not to nesting — span lines are always flat. *)

let index_of s pat =
  let n = String.length s and m = String.length pat in
  let rec go i =
    if i + m > n then -1 else if String.sub s i m = pat then i else go (i + 1)
  in
  go 0

let int_field s key =
  let pat = Printf.sprintf "\"%s\":" key in
  let i = index_of s pat in
  if i < 0 then None
  else begin
    let n = String.length s in
    let j = ref (i + String.length pat) in
    while !j < n && s.[!j] = ' ' do incr j done;
    let start = !j in
    if !j < n && s.[!j] = '-' then incr j;
    while !j < n && s.[!j] >= '0' && s.[!j] <= '9' do incr j done;
    if !j = start then None
    else int_of_string_opt (String.sub s start (!j - start))
  end

let str_field s key =
  let pat = Printf.sprintf "\"%s\":" key in
  let i = index_of s pat in
  if i < 0 then None
  else begin
    let n = String.length s in
    let j = ref (i + String.length pat) in
    while !j < n && s.[!j] = ' ' do incr j done;
    if !j >= n || s.[!j] <> '"' then None
    else begin
      incr j;
      let start = !j in
      while !j < n && s.[!j] <> '"' do incr j done;
      if !j >= n then None else Some (String.sub s start (!j - start))
    end
  end

let of_json_opt line =
  match
    ( int_field line "id",
      int_field line "parent",
      int_field line "client",
      int_field line "rid",
      int_field line "node",
      int_field line "instance",
      str_field line "tag",
      int_field line "t0",
      int_field line "t1" )
  with
  | ( Some id,
      Some parent,
      Some client,
      Some rid,
      Some node,
      Some instance,
      Some tag,
      Some t0,
      Some t1 ) ->
    let tag = match Tag.of_name tag with Some t -> t | None -> Tag.Other in
    Some
      { id; parent; client; rid; node; instance; tag; t0 = Time.ns t0; t1 = Time.ns t1 }
  | _ -> None
