open Dessim

let heavy_prefix = "heavy:"

let heavy_op ~payload = heavy_prefix ^ payload
let normal_op ~payload = payload

let is_heavy op =
  String.length op >= String.length heavy_prefix
  && String.sub op 0 (String.length heavy_prefix) = heavy_prefix

let create ?(exec_cost = Time.us 1) () =
  let executed = ref 0 in
  {
    Service.execute =
      (fun _ ->
        incr executed;
        "ok");
    exec_cost =
      (fun op -> if is_heavy op then Time.mul_f exec_cost 10.0 else exec_cost);
    state_digest = (fun () -> Printf.sprintf "null:%d" !executed);
  }
