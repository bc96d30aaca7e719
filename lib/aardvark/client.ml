include Pbftcore.Client_core.Open_loop (struct
  type msg = Node.msg
  type ext = unit

  let ext () = ()
  let targets = Pbftcore.Client_core.All
  let request () desc = Node.Request { desc; sig_valid = true }
  let request_size = Node.request_size

  let reply = function
    | Node.Reply { id; result } -> Some (id, result)
    | Node.Request _ | Node.Order _ -> None
end)
