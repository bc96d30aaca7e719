type behaviour = { mutable heavy : bool }

include Pbftcore.Client_core.Open_loop (struct
  type msg = Node.msg
  type ext = behaviour

  let ext () = { heavy = false }
  let targets = Pbftcore.Client_core.Round_robin

  let request b (desc : Pbftcore.Types.request_desc) =
    Node.Request { desc = { desc with flagged_heavy = b.heavy }; sig_valid = true }

  let request_size = Node.request_size

  let reply = function
    | Node.Reply { id; result } -> Some (id, result)
    | Node.Request _ | Node.Po_request _ | Node.Pre_prepare _ | Node.Prepare _
    | Node.Commit _ | Node.Ping _ | Node.Pong _ | Node.Suspect _ ->
      None
end)

let behaviour (t : t) = t.ext
