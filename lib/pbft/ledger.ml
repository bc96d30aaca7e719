open Types

type t = {
  probe : Bftmetrics.Probe.t;
  counter : Bftmetrics.Throughput.t;
  mutable count : int;
  mutable digest : string;
}

let create probe =
  { probe; counter = Bftmetrics.Throughput.create (); count = 0; digest = "genesis" }

let count t = t.count
let counter t = t.counter
let digest t = t.digest

let execute t ~now ~node ~instance (desc : request_desc) =
  t.count <- t.count + 1;
  Bftmetrics.Probe.executed t.probe now ~node ~instance ~client:desc.id.client
    ~rid:desc.id.rid ~digest:desc.digest;
  Bftmetrics.Throughput.record t.counter ~now;
  t.digest <- Bftcrypto.Sha256.digest_string (t.digest ^ desc.digest)
