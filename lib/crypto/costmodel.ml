module Time = Dessim.Time

(* Calibration targets (paper, Section VI-B, f = 1):
   - RBFT peak ~35 kreq/s at 8 B: the Verification thread performs one
     MAC verify + one signature verify per request; 1 us + 25 us plus
     handling gives ~28 us/request.
   - signatures "an order of magnitude more costly than MACs".
   - at 4 kB the per-byte costs dominate and push RBFT towards the
     ~5 kreq/s the paper reports. *)
let mac_base = Time.ns 1_000
let mac_per_byte = 0.4
let sig_sign_base = Time.us 50
let sig_verify_base = Time.us 25
let digest_base = Time.ns 300
let digest_per_byte = 1.5
let handling = Time.ns 2_000
let touch_per_byte = 8.0

let per_byte rate bytes = Time.ns (int_of_float (rate *. float_of_int bytes))

(* Every public costing function doubles as an instrumentation point:
   the cost model sits on the exact code paths where a real replica
   would run the primitive, so op/byte counters here give the per-run
   cryptographic workload (the paper's claimed bottleneck) for free. *)
let op_metrics name =
  let module Registry = Bftmetrics.Registry in
  ( Registry.counter Registry.default "bft_crypto_ops_total"
      ~help:"Cryptographic cost-model operations charged"
      ~labels:[ ("op", name) ],
    Registry.counter Registry.default "bft_crypto_bytes_total"
      ~help:"Bytes processed by cryptographic operations"
      ~labels:[ ("op", name) ] )

let m_mac_gen = op_metrics "mac_gen"
let m_mac_verify = op_metrics "mac_verify"
let m_authenticator = op_metrics "authenticator"
let m_digest = op_metrics "digest"
let m_sig_sign = op_metrics "sig_sign"
let m_sig_verify = op_metrics "sig_verify"

let tally (ops, byts) bytes =
  if Bftmetrics.Registry.active () then begin
    Bftmetrics.Registry.Counter.inc ops;
    Bftmetrics.Registry.Counter.add byts bytes
  end

(* Uncounted internals, so composite operations (a signature digests
   then signs) charge exactly one op each. *)
let mac_cost ~bytes = Time.add mac_base (per_byte mac_per_byte bytes)
let digest_cost ~bytes = Time.add digest_base (per_byte digest_per_byte bytes)

let mac_gen ~bytes =
  tally m_mac_gen bytes;
  mac_cost ~bytes

let mac_verify ~bytes =
  tally m_mac_verify bytes;
  mac_cost ~bytes

let authenticator_gen ~bytes ~count =
  tally m_authenticator bytes;
  Time.add (per_byte mac_per_byte bytes) (Time.ns (count * mac_base))

let digest ~bytes =
  tally m_digest bytes;
  digest_cost ~bytes

let sig_sign ~bytes =
  tally m_sig_sign bytes;
  Time.add (digest_cost ~bytes) sig_sign_base

let sig_verify ~bytes =
  tally m_sig_verify bytes;
  Time.add (digest_cost ~bytes) sig_verify_base

let recv ~bytes = Time.add handling (per_byte touch_per_byte bytes)
let send ~bytes = Time.add handling (per_byte touch_per_byte bytes)
