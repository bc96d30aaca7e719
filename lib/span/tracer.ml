(** Read-outs of a run's span capture (digest, JSONL), plus the span
    entry points that act on {!Bftmetrics.Probe.default} for
    [benchmark/] (DESIGN §9). The run's probe records the spans: ids
    are allocation order, so a capture of a deterministic run is
    deterministic, and context propagates as a bare span id ([-1] =
    none) carried in resource jobs and network deliveries. *)

open Bftmetrics

(* [benchmark/]'s entry points over {!Probe.default}. *)
let enable ?sample () = Probe.enable_spans ?sample Probe.default
let disable () = Probe.disable_spans Probe.default
let reset () = Probe.reset_spans Probe.default
let to_array () = Probe.span_array Probe.default

(* Chained over 64 KiB chunks of the JSONL rendering rather than span
   by span: the digest stays order- and prefix-sensitive, but a full
   1/1 capture (millions of spans) pays SHA-256 padding and finalisation
   once per chunk instead of once per span. Chunking and the
   final-partial-chunk flush live in {!Chunkdig}, so a truncated run
   (crash scenario, incident dump) digests its captured prefix exactly
   — [hex] folds the tail chunk in before reading the chain. *)
let digest_seed = "bftspan-trace-v1"

let digest_upto probe n =
  let d = Chunkdig.create ~seed:digest_seed () in
  let n = max 0 (min n (Probe.span_count probe)) in
  for i = 0 to n - 1 do
    Chunkdig.add_line d (fun buf -> Span.write_json buf (Probe.span_get probe i))
  done;
  Chunkdig.hex d

let digest probe = digest_upto probe (Probe.span_count probe)

let write_jsonl probe path =
  let oc = open_out path in
  let buf = Buffer.create 256 in
  for i = 0 to Probe.span_count probe - 1 do
    Buffer.clear buf;
    Span.write_json buf (Probe.span_get probe i);
    Buffer.add_char buf '\n';
    Buffer.output_buffer oc buf
  done;
  close_out oc
