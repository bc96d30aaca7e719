open Bftnet

type op =
  | Get of string
  | Put of string * string
  | Delete of string
  | Cas of string * string * string

let encode_op op =
  let w = Wire.Writer.create () in
  (match op with
   | Get k ->
     Wire.Writer.u8 w 0;
     Wire.Writer.string w k
   | Put (k, v) ->
     Wire.Writer.u8 w 1;
     Wire.Writer.string w k;
     Wire.Writer.string w v
   | Delete k ->
     Wire.Writer.u8 w 2;
     Wire.Writer.string w k
   | Cas (k, expected, v) ->
     Wire.Writer.u8 w 3;
     Wire.Writer.string w k;
     Wire.Writer.string w expected;
     Wire.Writer.string w v);
  Wire.Writer.contents w

let decode_op s =
  match
    let r = Wire.Reader.of_string s in
    let tag = Wire.Reader.u8 r in
    let op =
      match tag with
      | 0 -> Some (Get (Wire.Reader.string r))
      | 1 ->
        let k = Wire.Reader.string r in
        Some (Put (k, Wire.Reader.string r))
      | 2 -> Some (Delete (Wire.Reader.string r))
      | 3 ->
        let k = Wire.Reader.string r in
        let expected = Wire.Reader.string r in
        Some (Cas (k, expected, Wire.Reader.string r))
      | _ -> None
    in
    match op with Some _ when Wire.Reader.at_end r -> op | Some _ | None -> None
  with
  | v -> v
  | exception Wire.Reader.Truncated -> None

type t = {
  mutable store : string Map.Make(String).t;
  exec_cost : Dessim.Time.t;
  mutable version : int;
}

module Smap = Map.Make (String)

let create ?(exec_cost = Dessim.Time.us 1) () =
  { store = Smap.empty; exec_cost; version = 0 }

let apply t op =
  t.version <- t.version + 1;
  match op with
  | Get k -> (match Smap.find_opt k t.store with Some v -> v | None -> "")
  | Put (k, v) ->
    t.store <- Smap.add k v t.store;
    "ok"
  | Delete k ->
    t.store <- Smap.remove k t.store;
    "ok"
  | Cas (k, expected, v) ->
    let current = match Smap.find_opt k t.store with Some x -> x | None -> "" in
    if String.equal current expected then begin
      t.store <- Smap.add k v t.store;
      "ok"
    end
    else "fail:" ^ current

let size t = Smap.cardinal t.store

let digest t =
  let buf = Buffer.create 256 in
  Smap.iter
    (fun k v ->
      Buffer.add_string buf k;
      Buffer.add_char buf '\000';
      Buffer.add_string buf v;
      Buffer.add_char buf '\001')
    t.store;
  Bftcrypto.Sha256.digest_string (Buffer.contents buf)

let service t =
  {
    Service.execute =
      (fun encoded ->
        match decode_op encoded with
        | None -> "error:decode"
        | Some op -> apply t op);
    exec_cost = (fun _ -> t.exec_cost);
    state_digest = (fun () -> digest t);
  }
