(** In-memory trace capture with a chained per-run SHA-256 digest.

    The digest is folded over each event's canonical JSON line as it
    arrives, so two runs of the same binary with the same seed produce
    byte-identical digests — the determinism regression check — while
    the full event list supports JSONL and Chrome [trace_event]
    export after the run. *)

module Event = Bftmetrics.Event

type t = {
  mutable events : Event.t list; (* newest first *)
  mutable count : int;
  mutable chain : string; (* raw 32-byte running digest *)
  mutable detach : unit -> unit;
}

let create () =
  {
    events = [];
    count = 0;
    chain = Bftcrypto.Sha256.digest_string "bftaudit-trace-v1";
    detach = ignore;
  }

let record t ev =
  t.events <- ev :: t.events;
  t.count <- t.count + 1;
  t.chain <- Bftcrypto.Sha256.digest_string (t.chain ^ Event.to_json ev)

(** Create a capture and subscribe it to the probe's events. *)
let attach probe =
  let t = create () in
  t.detach <- Bftmetrics.Probe.subscribe probe (record t);
  t

let detach t =
  t.detach ();
  t.detach <- ignore

let count t = t.count
let events t = List.rev t.events
let digest t = Bftcrypto.Sha256.to_hex t.chain


let write_jsonl t path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      List.iter
        (fun ev ->
          output_string oc (Event.to_json ev);
          output_char oc '\n')
        (events t))

(* Each event becomes a Chrome instant event with pid = node and
   tid = instance, so the timeline groups lanes per node and per
   protocol instance. *)
let chrome_event (ev : Event.t) =
  Bftmetrics.Chrome.Instant
    {
      name = Event.kind_name ev.kind;
      ts = ev.time;
      pid = ev.node;
      tid = ev.instance;
      args = Some (Event.args_json ev.kind);
    }

let write_chrome_trace t path =
  Bftmetrics.Chrome.write path (List.map chrome_event (events t))
