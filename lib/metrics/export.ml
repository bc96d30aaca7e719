(* Exporters: Prometheus text exposition, CSV time series, JSON. *)

let escape_label v =
  let buf = Buffer.create (String.length v + 4) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string buf "\\\\"
      | '"' -> Buffer.add_string buf "\\\""
      | '\n' -> Buffer.add_string buf "\\n"
      | c -> Buffer.add_char buf c)
    v;
  Buffer.contents buf

let render_labels ?extra labels =
  let labels = match extra with None -> labels | Some kv -> labels @ [ kv ] in
  match labels with
  | [] -> ""
  | kvs ->
    "{"
    ^ String.concat ","
        (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (escape_label v)) kvs)
    ^ "}"

(* Floats in exposition format: integral values print without
   exponent; non-finite values use the spellings the Prometheus text
   format defines; everything else is shortest round-trip notation. *)
let render_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else if Float.is_integer v && Float.abs v < 1e15 then
    Printf.sprintf "%.0f" v
  else Printf.sprintf "%.9g" v

(* Fixed log-scale bucket boundaries shared by every histogram family:
   1 / 2.5 / 5 per decade from 1 us to 10 s (values are seconds). *)
let histogram_bounds =
  List.concat_map
    (fun d ->
      let b = 10.0 ** float_of_int d in
      [ b; 2.5 *. b; 5.0 *. b ])
    [ -6; -5; -4; -3; -2; -1; 0 ]
  @ [ 10.0 ]

let prometheus reg =
  let buf = Buffer.create 4096 in
  List.iter
    (fun fam ->
      let name = Registry.family_name fam in
      let help = Registry.family_help fam in
      if help <> "" then Buffer.add_string buf (Printf.sprintf "# HELP %s %s\n" name help);
      Buffer.add_string buf
        (Printf.sprintf "# TYPE %s %s\n" name
           (Registry.kind_name (Registry.family_kind fam)));
      List.iter
        (fun (labels, instrument) ->
          match (instrument : Registry.instrument) with
          | Registry.Counter_i c ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %d\n" name (render_labels labels)
                 (Registry.Counter.value c))
          | Registry.Gauge_i g ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (render_labels labels)
                 (render_float (Registry.Gauge.value g)))
          | Registry.Gauge_fn_i fn ->
            Buffer.add_string buf
              (Printf.sprintf "%s%s %s\n" name (render_labels labels)
                 (render_float (!fn ())))
          | Registry.Histogram_i h ->
            List.iter
              (fun le ->
                Buffer.add_string buf
                  (Printf.sprintf "%s_bucket%s %d\n" name
                     (render_labels ~extra:("le", render_float le) labels)
                     (Hist.cumulative_le h le)))
              histogram_bounds;
            Buffer.add_string buf
              (Printf.sprintf "%s_bucket%s %d\n" name
                 (render_labels ~extra:("le", "+Inf") labels)
                 (Hist.count h));
            Buffer.add_string buf
              (Printf.sprintf "%s_sum%s %s\n" name (render_labels labels)
                 (render_float (Hist.sum h)));
            Buffer.add_string buf
              (Printf.sprintf "%s_count%s %d\n" name (render_labels labels)
                 (Hist.count h)))
        (Registry.children_of fam))
    (Registry.families reg);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* CSV time series                                                    *)
(* ------------------------------------------------------------------ *)

let csv_labels labels =
  String.concat ";" (List.map (fun (k, v) -> k ^ "=" ^ v) labels)

let csv_fields (v : Registry.value) =
  match v with
  | Registry.Counter_v n -> [ ("value", float_of_int n) ]
  | Registry.Gauge_v x -> [ ("value", x) ]
  | Registry.Histogram_v s ->
    [
      ("count", float_of_int s.Registry.h_count);
      ("sum", s.Registry.h_sum);
      ("mean", s.Registry.h_mean);
      ("p50", s.Registry.h_p50);
      ("p90", s.Registry.h_p90);
      ("p99", s.Registry.h_p99);
      ("max", s.Registry.h_max);
    ]

(* One row per (time, metric, labels, field): long format, trivially
   pivotable into the paper's figures. *)
let csv_of_series sampler =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "time_s,metric,labels,field,value\n";
  List.iter
    (fun (p : Sampler.point) ->
      let time = Dessim.Time.to_sec_f p.Sampler.p_time in
      List.iter
        (fun (s : Registry.sample) ->
          List.iter
            (fun (field, v) ->
              Buffer.add_string buf
                (Printf.sprintf "%.6f,%s,%s,%s,%s\n" time s.Registry.s_name
                   (csv_labels s.Registry.s_labels)
                   field (render_float v)))
            (csv_fields s.Registry.s_value))
        p.Sampler.p_samples)
    (Sampler.points sampler);
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* JSON                                                               *)
(* ------------------------------------------------------------------ *)

let json_escape = Event.json_escape

let json_float v =
  if Float.is_finite v then Printf.sprintf "%.9g" v
  else "null"

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map
         (fun (k, v) ->
           Printf.sprintf {|"%s":"%s"|} (json_escape k) (json_escape v))
         labels)
  ^ "}"

let json_value (v : Registry.value) =
  match v with
  | Registry.Counter_v n -> string_of_int n
  | Registry.Gauge_v x -> json_float x
  | Registry.Histogram_v s ->
    Printf.sprintf
      {|{"count":%d,"sum":%s,"mean":%s,"p50":%s,"p90":%s,"p99":%s,"max":%s}|}
      s.Registry.h_count (json_float s.Registry.h_sum)
      (json_float s.Registry.h_mean) (json_float s.Registry.h_p50)
      (json_float s.Registry.h_p90) (json_float s.Registry.h_p99)
      (json_float s.Registry.h_max)

let json_of_samples samples =
  "["
  ^ String.concat ","
      (List.map
         (fun (s : Registry.sample) ->
           Printf.sprintf {|{"name":"%s","labels":%s,"value":%s}|}
             (json_escape s.Registry.s_name)
             (json_labels s.Registry.s_labels)
             (json_value s.Registry.s_value))
         samples)
  ^ "]"

let write_file path contents =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc contents)

let to_channel_or_file ~path contents =
  if path = "-" then print_string contents else write_file path contents
