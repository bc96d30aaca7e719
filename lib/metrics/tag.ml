(** Attribution tags: what a span's interval was spent on.

    Every span carries exactly one tag; the critical-path analyzer
    charges each nanosecond of a request's end-to-end latency to one
    tag, so the set below is the row space of the latency-budget
    tables. *)

type t =
  | Client  (** root span: client submit until f+1 matching replies *)
  | Net_transit  (** wire time: serialization + propagation + ingress *)
  | Queue_wait  (** waiting behind other jobs on a CPU thread *)
  | Crypto_verify  (** MAC / signature verification work *)
  | Crypto_sign  (** MAC / signature generation work *)
  | Propagate  (** RBFT PROPAGATE handling (f+1 agreement on requests) *)
  | Dispatch  (** handing a verified request to the ordering instances *)
  | Batch_wait  (** ordered instance: submit until PRE-PREPARE accepted *)
  | Prepare  (** PRE-PREPARE accepted until prepared (2f PREPAREs) *)
  | Commit  (** prepared until ordered (2f+1 COMMITs) *)
  | Sequence  (** concurrent ordering: committed until merged into the
                  global execution order (Bftrcc.Sequencer) *)
  | Execution  (** state-machine execution of the operation *)
  | Reply  (** reply transit back to the client *)
  | Backoff
      (** client-side wait after BUSY backpressure replies, before the
          retry of the same request (admission gate, Bftflow) *)
  | Other

let name = function
  | Client -> "client"
  | Net_transit -> "net-transit"
  | Queue_wait -> "queue-wait"
  | Crypto_verify -> "crypto-verify"
  | Crypto_sign -> "crypto-sign"
  | Propagate -> "propagate"
  | Dispatch -> "dispatch"
  | Batch_wait -> "batch-wait"
  | Prepare -> "prepare"
  | Commit -> "commit"
  | Sequence -> "sequence"
  | Execution -> "execution"
  | Reply -> "reply"
  | Backoff -> "backoff"
  | Other -> "other"

let all =
  [
    Client;
    Net_transit;
    Queue_wait;
    Crypto_verify;
    Crypto_sign;
    Propagate;
    Dispatch;
    Batch_wait;
    Prepare;
    Commit;
    Sequence;
    Execution;
    Reply;
    Backoff;
    Other;
  ]

let of_name s = List.find_opt (fun t -> name t = s) all
