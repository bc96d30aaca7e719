(** Chunk-chained SHA-256 over a line stream.

    The digest of span captures ({!Tracer.digest}; doctor bundles chain
    whole parts in [Bundle.chain_digest] instead): lines are
    accumulated into ~64 KiB chunks and each full chunk folds into a
    running chain,

    {[ chain := SHA-256 (chain ^ chunk) ]}

    seeded with a version string. The digest is order- and
    prefix-sensitive but pays SHA-256 finalisation once per chunk
    rather than once per line.

    The subtle part is the {e final partial} chunk: a run that
    terminates early (a crash scenario, an incident dump mid-run)
    leaves the buffer partly full, and that tail must fold into the
    chain exactly like a full chunk — otherwise every line since the
    last 64 KiB boundary silently drops out of the digest and a
    truncated capture can collide with its own prefix. {!hex} flushes
    before reading the chain, so callers cannot observe an unflushed
    digest. *)

(* Chunk boundary policy: a chunk closes when, after appending a line,
   the buffer has reached [chunk - slack] bytes. [slack] keeps the
   boundary decision identical to the historical per-line check, so
   digests of existing captures are unchanged. *)
let chunk = 64 * 1024
let slack = 256

type t = {
  mutable chain : string;  (* raw 32-byte digest *)
  buf : Buffer.t;
}

let create ~seed () =
  { chain = Bftcrypto.Sha256.digest_string seed; buf = Buffer.create chunk }

let flush t =
  if Buffer.length t.buf > 0 then begin
    t.chain <- Bftcrypto.Sha256.digest_concat t.chain (Buffer.contents t.buf);
    Buffer.clear t.buf
  end

(** Append one line ([writer] emits the line body; the trailing
    newline is added here). *)
let add_line t writer =
  writer t.buf;
  Buffer.add_char t.buf '\n';
  if Buffer.length t.buf >= chunk - slack then flush t

let add_string_line t s = add_line t (fun buf -> Buffer.add_string buf s)

(** Flush the final partial chunk and return the chain in hex. *)
let hex t =
  flush t;
  Bftcrypto.Sha256.to_hex t.chain
