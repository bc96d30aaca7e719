(* The one Chrome trace_event writer. See chrome.mli. *)

open Dessim

type event =
  | Complete of { name : string; ts : Time.t; dur : Time.t; pid : int; tid : int; args : string }
  | Instant of { name : string; ts : Time.t; pid : int; tid : int; args : string option }
  | Counter of { name : string; ts : Time.t; value : float }

let print oc = function
  | Complete { name; ts; dur; pid; tid; args } ->
    Printf.fprintf oc
      {|{"name":"%s","ph":"X","ts":%.3f,"dur":%.3f,"pid":%d,"tid":%d,"args":{%s}}|}
      name (Time.to_us_f ts) (Time.to_us_f dur) pid tid args
  | Instant { name; ts; pid; tid; args = Some args } ->
    Printf.fprintf oc
      {|{"name":"%s","ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d,"args":{%s}}|}
      name (Time.to_us_f ts) pid tid args
  | Instant { name; ts; pid; tid; args = None } ->
    Printf.fprintf oc {|{"name":"%s","ph":"i","s":"t","ts":%.3f,"pid":%d,"tid":%d}|}
      name (Time.to_us_f ts) pid tid
  | Counter { name; ts; value } ->
    Printf.fprintf oc
      {|{"name":"%s","ph":"C","ts":%.3f,"pid":0,"tid":0,"args":{"value":%.0f}}|}
      name (Time.to_us_f ts) value

let write path events =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc {|{"displayTimeUnit":"ms","traceEvents":[|};
      List.iteri
        (fun i ev ->
          if i > 0 then output_char oc ',';
          print oc ev)
        events;
      output_string oc "]}")
