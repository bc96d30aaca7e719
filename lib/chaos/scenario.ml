open Dessim

type workload = { clients : int; rate : float; payload : int }

type mutation = Ic_quorum_low

let mutation_name = function Ic_quorum_low -> "ic-quorum-low"

let mutation_of_name = function
  | "ic-quorum-low" -> Some Ic_quorum_low
  | _ -> None

type t = {
  name : string;
  protocol : Flavour.t;
  f : int;
  seed : int64;
  duration : Time.t;
  drain : Time.t;
  workload : workload;
  faults : Fault.plan;
  lambda : Time.t;
  mutation : mutation option;
}

(* ------------------------------------------------------------------ *)
(* Printing                                                           *)
(* ------------------------------------------------------------------ *)

(* Times are written as integer nanoseconds and floats with 17
   significant digits so that values survive the round trip exactly. *)
let float_atom f = Sexp.Atom (Printf.sprintf "%.17g" f)
let time_atom t = Sexp.Atom (string_of_int (t : Time.t :> int))
let int_atom i = Sexp.Atom (string_of_int i)

let pair name v = Sexp.List [ Sexp.Atom name; v ]

let kind_to_sexp (k : Fault.kind) =
  match k with
  | Fault.Crash { node } -> Sexp.List [ Sexp.Atom "crash"; pair "node" (int_atom node) ]
  | Fault.Partition { group } ->
    Sexp.List
      [ Sexp.Atom "partition"; Sexp.List (Sexp.Atom "group" :: List.map int_atom group) ]
  | Fault.Link_chaos { src; dst; rates } ->
    let endpoint = function None -> Sexp.Atom "*" | Some i -> int_atom i in
    Sexp.List
      [
        Sexp.Atom "link-chaos";
        pair "src" (endpoint src);
        pair "dst" (endpoint dst);
        pair "drop" (float_atom rates.Fault.drop);
        pair "duplicate" (float_atom rates.Fault.duplicate);
        pair "corrupt" (float_atom rates.Fault.corrupt);
        pair "delay-ns" (time_atom rates.Fault.delay);
        pair "jitter-ns" (time_atom rates.Fault.jitter);
      ]
  | Fault.Clock_skew { node; factor } ->
    Sexp.List
      [ Sexp.Atom "clock-skew"; pair "node" (int_atom node); pair "factor" (float_atom factor) ]
  | Fault.Cpu_skew { node; factor } ->
    Sexp.List
      [ Sexp.Atom "cpu-skew"; pair "node" (int_atom node); pair "factor" (float_atom factor) ]

let fault_to_sexp (f : Fault.t) =
  Sexp.List
    [
      Sexp.Atom "fault";
      pair "at-ns" (time_atom f.Fault.at);
      pair "until-ns" (time_atom f.Fault.until);
      kind_to_sexp f.Fault.kind;
    ]

let to_sexp t =
  (* Optional fields are emitted only when non-default, so scenarios
     that do not use them serialize exactly as they did before the
     fields existed (and old files parse: missing means default). *)
  let optional =
    (if t.lambda = Time.zero then []
     else [ pair "lambda-ns" (time_atom t.lambda) ])
    @
    match t.mutation with
    | None -> []
    | Some m -> [ pair "mutation" (Sexp.Atom (mutation_name m)) ]
  in
  Sexp.List
    ([
       Sexp.Atom "scenario";
       pair "name" (Sexp.Atom t.name);
       pair "protocol" (Sexp.Atom (Flavour.slug t.protocol));
       pair "f" (int_atom t.f);
       pair "seed" (Sexp.Atom (Int64.to_string t.seed));
       pair "duration-ns" (time_atom t.duration);
       pair "drain-ns" (time_atom t.drain);
       Sexp.List
         [
           Sexp.Atom "workload";
           pair "clients" (int_atom t.workload.clients);
           pair "rate" (float_atom t.workload.rate);
           pair "payload" (int_atom t.workload.payload);
         ];
       Sexp.List (Sexp.Atom "faults" :: List.map fault_to_sexp t.faults);
     ]
    @ optional)

let to_string t = Sexp.to_string (to_sexp t) ^ "\n"

(* ------------------------------------------------------------------ *)
(* Parsing                                                            *)
(* ------------------------------------------------------------------ *)

let ( let* ) r f = match r with Ok v -> f v | Error _ as e -> e

let get s name ~what =
  match Sexp.field s name with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing (%s ...) in %s" name what)

(* Like [get] but always yields the whole [(name ...)] child — needed
   for containers such as [(faults ...)], where [Sexp.field] would
   unwrap a single payload. *)
let get_node s name ~what =
  match Sexp.field_all s name with
  | [ v ] -> Ok v
  | [] -> Error (Printf.sprintf "missing (%s ...) in %s" name what)
  | _ -> Error (Printf.sprintf "duplicate (%s ...) in %s" name what)

let get_atom s name ~what =
  let* v = get s name ~what in
  Sexp.atom v

let get_int s name ~what =
  let* a = get_atom s name ~what in
  match int_of_string_opt a with
  | Some i -> Ok i
  | None -> Error (Printf.sprintf "bad integer %S for %s" a name)

let get_float s name ~what =
  let* a = get_atom s name ~what in
  match float_of_string_opt a with
  | Some f -> Ok f
  | None -> Error (Printf.sprintf "bad float %S for %s" a name)

let get_time s name ~what =
  let* i = get_int s name ~what in
  Ok (Time.ns i)

let endpoint_of_sexp s name =
  let* a = get_atom s name ~what:"link-chaos" in
  if String.equal a "*" then Ok None
  else
    match int_of_string_opt a with
    | Some i -> Ok (Some i)
    | None -> Error (Printf.sprintf "bad endpoint %S" a)

let kind_of_sexp s =
  match s with
  | Sexp.List (Sexp.Atom "crash" :: _) ->
    let* node = get_int s "node" ~what:"crash" in
    Ok (Fault.Crash { node })
  | Sexp.List (Sexp.Atom "partition" :: _) -> (
    (* [field_all], not [field]: a one-node group [(group 3)] is a
       2-element list that [field] would unwrap to the bare atom. *)
    match Sexp.field_all s "group" with
    | [ Sexp.List (Sexp.Atom "group" :: members) ] ->
      let* group =
        List.fold_left
          (fun acc m ->
            let* acc = acc in
            let* a = Sexp.atom m in
            match int_of_string_opt a with
            | Some i -> Ok (i :: acc)
            | None -> Error (Printf.sprintf "bad group member %S" a))
          (Ok []) members
      in
      Ok (Fault.Partition { group = List.rev group })
    | _ -> Error "partition: missing (group ...)")
  | Sexp.List (Sexp.Atom "link-chaos" :: _) ->
    let* src = endpoint_of_sexp s "src" in
    let* dst = endpoint_of_sexp s "dst" in
    let* drop = get_float s "drop" ~what:"link-chaos" in
    let* duplicate = get_float s "duplicate" ~what:"link-chaos" in
    let* corrupt = get_float s "corrupt" ~what:"link-chaos" in
    let* delay = get_time s "delay-ns" ~what:"link-chaos" in
    let* jitter = get_time s "jitter-ns" ~what:"link-chaos" in
    Ok (Fault.Link_chaos { src; dst; rates = { drop; duplicate; corrupt; delay; jitter } })
  | Sexp.List (Sexp.Atom "clock-skew" :: _) ->
    let* node = get_int s "node" ~what:"clock-skew" in
    let* factor = get_float s "factor" ~what:"clock-skew" in
    Ok (Fault.Clock_skew { node; factor })
  | Sexp.List (Sexp.Atom "cpu-skew" :: _) ->
    let* node = get_int s "node" ~what:"cpu-skew" in
    let* factor = get_float s "factor" ~what:"cpu-skew" in
    Ok (Fault.Cpu_skew { node; factor })
  | _ -> Error "unknown fault kind"

let fault_of_sexp s =
  let* at = get_time s "at-ns" ~what:"fault" in
  let* until = get_time s "until-ns" ~what:"fault" in
  let kind_sexp =
    match s with
    | Sexp.List items ->
      List.find_opt
        (function
          | Sexp.List (Sexp.Atom ("crash" | "partition" | "link-chaos" | "clock-skew" | "cpu-skew") :: _)
            -> true
          | _ -> false)
        items
    | Sexp.Atom _ -> None
  in
  match kind_sexp with
  | None -> Error "fault: missing kind"
  | Some ks ->
    let* kind = kind_of_sexp ks in
    Ok { Fault.at; until; kind }

let of_sexp s =
  match s with
  | Sexp.List (Sexp.Atom "scenario" :: _) ->
    let what = "scenario" in
    let* name = get_atom s "name" ~what in
    let* proto = get_atom s "protocol" ~what in
    let* protocol =
      match Flavour.of_slug proto with
      | Some p -> Ok p
      | None -> Error (Printf.sprintf "unknown protocol %S" proto)
    in
    let* f = get_int s "f" ~what in
    let* seed_a = get_atom s "seed" ~what in
    let* seed =
      match Int64.of_string_opt seed_a with
      | Some i -> Ok i
      | None -> Error (Printf.sprintf "bad seed %S" seed_a)
    in
    let* duration = get_time s "duration-ns" ~what in
    let* drain = get_time s "drain-ns" ~what in
    let* w = get_node s "workload" ~what in
    let* clients = get_int w "clients" ~what:"workload" in
    let* rate = get_float w "rate" ~what:"workload" in
    let* payload = get_int w "payload" ~what:"workload" in
    let* faults_sexp = get_node s "faults" ~what in
    let* faults =
      List.fold_left
        (fun acc fs ->
          let* acc = acc in
          let* fault = fault_of_sexp fs in
          Ok (fault :: acc))
        (Ok [])
        (Sexp.field_all faults_sexp "fault")
    in
    (* Optional fields, absent in older scenario files. *)
    let* lambda =
      match Sexp.field s "lambda-ns" with
      | None -> Ok Time.zero
      | Some _ -> get_time s "lambda-ns" ~what
    in
    let* mutation =
      match Sexp.field s "mutation" with
      | None -> Ok None
      | Some _ ->
        let* a = get_atom s "mutation" ~what in
        (match mutation_of_name a with
         | Some m -> Ok (Some m)
         | None -> Error (Printf.sprintf "unknown mutation %S" a))
    in
    Ok
      {
        name;
        protocol;
        f;
        seed;
        duration;
        drain;
        workload = { clients; rate; payload };
        faults = List.rev faults;
        lambda;
        mutation;
      }
  | _ -> Error "expected (scenario ...)"

let of_string src =
  let* s = Sexp.of_string src in
  of_sexp s

let save t path =
  let oc = open_out path in
  output_string oc (to_string t);
  close_out oc

let load path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let src = really_input_string ic len in
  close_in ic;
  of_string src
