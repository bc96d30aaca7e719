type t = {
  execute : string -> string;
  exec_cost : string -> Dessim.Time.t;
  state_digest : unit -> string;
}

let noop =
  {
    execute = (fun _ -> "");
    exec_cost = (fun _ -> Dessim.Time.zero);
    state_digest = (fun () -> "noop");
  }
