(** Minimal recursive-descent JSON reader.

    The repository deliberately carries no JSON dependency, so this
    module is the one parser every reader shares: span JSONL lines,
    bundle manifests, metrics snapshots, BENCH baselines. It reads
    everything this codebase writes; it is not a strict validator. *)

type v =
  | Null
  | Bool of bool
  | Num of float
  | Str of string
  | Arr of v list
  | Obj of (string * v) list

exception Parse_error of string

type state = { s : string; mutable pos : int }

let error st msg =
  raise (Parse_error (Printf.sprintf "%s at offset %d" msg st.pos))

let peek st = if st.pos < String.length st.s then Some st.s.[st.pos] else None

let skip_ws st =
  while
    st.pos < String.length st.s
    &&
    match st.s.[st.pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
  do
    st.pos <- st.pos + 1
  done

let expect st c =
  if peek st = Some c then st.pos <- st.pos + 1
  else error st (Printf.sprintf "expected '%c'" c)

let parse_literal st lit value =
  let n = String.length lit in
  if st.pos + n <= String.length st.s && String.sub st.s st.pos n = lit then begin
    st.pos <- st.pos + n;
    value
  end
  else error st (Printf.sprintf "expected %s" lit)

let parse_string st =
  expect st '"';
  let buf = Buffer.create 16 in
  let rec go () =
    if st.pos >= String.length st.s then error st "unterminated string";
    let c = st.s.[st.pos] in
    st.pos <- st.pos + 1;
    match c with
    | '"' -> Buffer.contents buf
    | '\\' ->
      (if st.pos >= String.length st.s then error st "unterminated escape";
       let e = st.s.[st.pos] in
       st.pos <- st.pos + 1;
       match e with
       | '"' -> Buffer.add_char buf '"'
       | '\\' -> Buffer.add_char buf '\\'
       | '/' -> Buffer.add_char buf '/'
       | 'n' -> Buffer.add_char buf '\n'
       | 't' -> Buffer.add_char buf '\t'
       | 'r' -> Buffer.add_char buf '\r'
       | 'b' -> Buffer.add_char buf '\b'
       | 'f' -> Buffer.add_char buf '\012'
       | 'u' ->
         if st.pos + 4 > String.length st.s then error st "short \\u escape";
         let hex = String.sub st.s st.pos 4 in
         st.pos <- st.pos + 4;
         let code =
           try int_of_string ("0x" ^ hex)
           with _ -> error st "bad \\u escape"
         in
         (* Code points above the BMP never occur in our own output;
            encode the scalar as UTF-8. *)
         if code < 0x80 then Buffer.add_char buf (Char.chr code)
         else if code < 0x800 then begin
           Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
         else begin
           Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
           Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
           Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
         end
       | _ -> error st "bad escape");
      go ()
    | c ->
      Buffer.add_char buf c;
      go ()
  in
  go ()

let parse_number st =
  let start = st.pos in
  let is_num_char c =
    match c with
    | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
    | _ -> false
  in
  while st.pos < String.length st.s && is_num_char st.s.[st.pos] do
    st.pos <- st.pos + 1
  done;
  let text = String.sub st.s start (st.pos - start) in
  match float_of_string_opt text with
  | Some f -> f
  | None -> error st (Printf.sprintf "bad number %S" text)

let rec parse_value st =
  skip_ws st;
  match peek st with
  | None -> error st "unexpected end of input"
  | Some '{' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some '}' then begin
      st.pos <- st.pos + 1;
      Obj []
    end
    else begin
      let rec members acc =
        skip_ws st;
        let key = parse_string st in
        skip_ws st;
        expect st ':';
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          members ((key, value) :: acc)
        | Some '}' ->
          st.pos <- st.pos + 1;
          Obj (List.rev ((key, value) :: acc))
        | _ -> error st "expected ',' or '}'"
      in
      members []
    end
  | Some '[' ->
    st.pos <- st.pos + 1;
    skip_ws st;
    if peek st = Some ']' then begin
      st.pos <- st.pos + 1;
      Arr []
    end
    else begin
      let rec elems acc =
        let value = parse_value st in
        skip_ws st;
        match peek st with
        | Some ',' ->
          st.pos <- st.pos + 1;
          elems (value :: acc)
        | Some ']' ->
          st.pos <- st.pos + 1;
          Arr (List.rev (value :: acc))
        | _ -> error st "expected ',' or ']'"
      in
      elems []
    end
  | Some '"' -> Str (parse_string st)
  | Some 't' -> parse_literal st "true" (Bool true)
  | Some 'f' -> parse_literal st "false" (Bool false)
  | Some 'n' -> parse_literal st "null" Null
  | Some ('N' | 'I') ->
    (* Our own exporters can emit NaN / Infinity spellings. *)
    (try parse_literal st "NaN" (Num Float.nan)
     with Parse_error _ -> parse_literal st "Infinity" (Num Float.infinity))
  | Some _ -> Num (parse_number st)

let parse text =
  let st = { s = text; pos = 0 } in
  let v = parse_value st in
  skip_ws st;
  if st.pos <> String.length text then error st "trailing garbage";
  v

let parse_opt text = try Some (parse text) with Parse_error _ -> None

(* --- accessors ----------------------------------------------------- *)

let mem key = function Obj kvs -> List.assoc_opt key kvs | _ -> None
let str = function Str s -> Some s | _ -> None
let num = function Num f -> Some f | _ -> None
let bool = function Bool b -> Some b | _ -> None
let arr = function Arr xs -> Some xs | _ -> None
let obj = function Obj kvs -> Some kvs | _ -> None

let to_int v =
  match num v with
  | Some f when Float.is_integer f && Float.abs f < 1e15 -> Some (int_of_float f)
  | _ -> None

let get_str key v = Option.bind (mem key v) str
let get_num key v = Option.bind (mem key v) num
let get_int key v = Option.bind (mem key v) to_int
