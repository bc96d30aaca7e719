open Types

type t = {
  counter : Bftmetrics.Throughput.t;
  mutable count : int;
  mutable digest : string;
}

let create () =
  { counter = Bftmetrics.Throughput.create (); count = 0; digest = "genesis" }

let count t = t.count
let counter t = t.counter
let digest t = t.digest

let chain t (desc : request_desc) =
  t.digest <- Bftcrypto.Sha256.digest_string (t.digest ^ desc.digest)

let complete t ~now ~node ~instance (desc : request_desc) =
  t.count <- t.count + 1;
  if Bftaudit.Bus.active () then
    Bftaudit.Bus.emit_at now ~node ~instance
      (Bftaudit.Event.Executed
         { client = desc.id.client; rid = desc.id.rid; digest = desc.digest });
  Bftmetrics.Throughput.record t.counter ~now

let execute t ~now ~node ~instance desc =
  complete t ~now ~node ~instance desc;
  chain t desc
