type t = { mutable value : int }

let create () = { value = 0 }

let value t = t.value

let service t =
  {
    Service.execute =
      (fun op ->
        match op with
        | "inc" ->
          t.value <- t.value + 1;
          string_of_int t.value
        | "get" -> string_of_int t.value
        | _ -> "error");
    exec_cost = (fun _ -> Dessim.Time.us 1);
    state_digest = (fun () -> "counter:" ^ string_of_int t.value);
  }
