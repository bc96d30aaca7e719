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

let of_json_opt line =
  match Jmini.parse_opt line with
  | None -> None
  | Some v -> (
    let int k = Jmini.get_int k v in
    match
      ( int "id",
        int "parent",
        int "client",
        int "rid",
        int "node",
        int "instance",
        Jmini.get_str "tag" v,
        int "t0",
        int "t1" )
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
    | _ -> None)
