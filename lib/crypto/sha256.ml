(* SHA-256 per FIPS 180-4. Operates on 32-bit words stored in OCaml
   ints (which are wider than 32 bits, so sums mask back down to 32
   bits with [land mask]). *)

type t = string

let size = 32

let k =
  [|
    0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b; 0x59f111f1;
    0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01; 0x243185be; 0x550c7dc3;
    0x72be5d74; 0x80deb1fe; 0x9bdc06a7; 0xc19bf174; 0xe49b69c1; 0xefbe4786;
    0x0fc19dc6; 0x240ca1cc; 0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da;
    0x983e5152; 0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
    0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc; 0x53380d13;
    0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85; 0xa2bfe8a1; 0xa81a664b;
    0xc24b8b70; 0xc76c51a3; 0xd192e819; 0xd6990624; 0xf40e3585; 0x106aa070;
    0x19a4c116; 0x1e376c08; 0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a;
    0x5b9cca4f; 0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
    0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2;
  |]

let mask = 0xFFFFFFFF

(* Every rotation of a 32-bit word [x] is a window of the doubled word
   [d = x lor (x lsl 32)]: [rotr x n = (d lsr n) land mask] for n < 32.
   (The 63-bit int drops bit 31 of the upper copy, at position 63, which
   only n = 32 would reach.) So each Σ/σ group is three shifts of one
   [d] and a single mask. *)
let compress h w (s : string) off =
  for t = 0 to 15 do
    Array.unsafe_set w t
      (Int32.to_int (String.get_int32_be s (off + (4 * t))) land mask)
  done;
  for t = 16 to 63 do
    let x = Array.unsafe_get w (t - 15) and y = Array.unsafe_get w (t - 2) in
    let dx = x lor (x lsl 32) and dy = y lor (y lsl 32) in
    let s0 = ((dx lsr 7) lxor (dx lsr 18) lxor (x lsr 3)) land mask in
    let s1 = ((dy lsr 17) lxor (dy lsr 19) lxor (y lsr 10)) land mask in
    Array.unsafe_set w t
      ((Array.unsafe_get w (t - 16) + s0 + Array.unsafe_get w (t - 7) + s1)
      land mask)
  done;
  let a = ref (Array.unsafe_get h 0) and b = ref (Array.unsafe_get h 1) in
  let c = ref (Array.unsafe_get h 2) and d = ref (Array.unsafe_get h 3) in
  let e = ref (Array.unsafe_get h 4) and f = ref (Array.unsafe_get h 5) in
  let g = ref (Array.unsafe_get h 6) and hh = ref (Array.unsafe_get h 7) in
  for t = 0 to 63 do
    let ev = !e and av = !a in
    let de = ev lor (ev lsl 32) and da = av lor (av lsl 32) in
    let s1 = ((de lsr 6) lxor (de lsr 11) lxor (de lsr 25)) land mask in
    let ch = (ev land !f) lxor (lnot ev land !g) in
    (* At most five 32-bit terms: no overflow, masked where stored. *)
    let t1 = !hh + s1 + ch + Array.unsafe_get k t + Array.unsafe_get w t in
    let s0 = ((da lsr 2) lxor (da lsr 13) lxor (da lsr 22)) land mask in
    let maj = (av land (!b lor !c)) lor (!b land !c) in
    hh := !g;
    g := !f;
    f := ev;
    e := (!d + t1) land mask;
    d := !c;
    c := !b;
    b := av;
    a := (t1 + s0 + maj) land mask
  done;
  Array.unsafe_set h 0 ((Array.unsafe_get h 0 + !a) land mask);
  Array.unsafe_set h 1 ((Array.unsafe_get h 1 + !b) land mask);
  Array.unsafe_set h 2 ((Array.unsafe_get h 2 + !c) land mask);
  Array.unsafe_set h 3 ((Array.unsafe_get h 3 + !d) land mask);
  Array.unsafe_set h 4 ((Array.unsafe_get h 4 + !e) land mask);
  Array.unsafe_set h 5 ((Array.unsafe_get h 5 + !f) land mask);
  Array.unsafe_set h 6 ((Array.unsafe_get h 6 + !g) land mask);
  Array.unsafe_set h 7 ((Array.unsafe_get h 7 + !hh) land mask)

let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a;
     0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

(* A direct-mapped memo of recent [digest_concat] results. Every node
   extends its own copy of the same hash chains (the execution ledger,
   each instance's ordering chain), and the nodes run in near lockstep,
   so most chain steps repeat one another's a few events apart. An
   entry is keyed on both inputs in full, never on a digest some sender
   supplied, so a hit returns exactly what hashing would; only inputs of
   at most [memo_max] bytes in total enter it (a chain step is 64),
   which bounds the memory it retains. *)
let memo_bits = 8
let memo_max = 128

(* Per-domain working state, so runs on different domains never share
   it: the count of blocks compressed (for the host-cost report), the
   hashing scratch buffers, and the memo. *)
type state = {
  mutable blocks : int;
  h : int array;  (* chaining value *)
  w : int array;  (* message schedule *)
  join : Bytes.t;  (* a block straddling the two parts *)
  tail : Bytes.t;  (* the padded last one or two blocks *)
  left : string array;
  right : string array;
  out : string array;
}

(* An empty memo entry's left key is too long to be memoised, so it
   matches no input. *)
let state_key =
  Domain.DLS.new_key (fun () ->
      let n = 1 lsl memo_bits in
      let never = String.make (memo_max + 1) '\000' in
      {
        blocks = 0;
        h = Array.make 8 0;
        w = Array.make 64 0;
        join = Bytes.create 64;
        tail = Bytes.create 128;
        left = Array.make n never;
        right = Array.make n "";
        out = Array.make n "";
      })

let blocks_hashed () = (Domain.DLS.get state_key).blocks

(* The digest of [s1[p1, p1+n1) ^ s2[p2, p2+n2)], without building the
   concatenation. Whole blocks are read in place; the block that
   straddles the two parts and the padded tail (at most 128 bytes) are
   staged in the domain's scratch buffers, so only the digest itself is
   allocated. *)
let digest2 st s1 p1 n1 s2 p2 n2 =
  let h = st.h and w = st.w in
  Array.blit iv 0 h 0 8;
  let total = n1 + n2 in
  let full1 = n1 / 64 in
  for i = 0 to full1 - 1 do
    compress h w s1 (p1 + (64 * i))
  done;
  let r1 = n1 - (64 * full1) in
  (* A block that starts in [s1] and ends in [s2]. *)
  let join = if r1 > 0 && r1 + n2 >= 64 then 64 - r1 else 0 in
  if join > 0 then begin
    let blk = st.join in
    Bytes.blit_string s1 (p1 + (64 * full1)) blk 0 r1;
    Bytes.blit_string s2 p2 blk r1 join;
    compress h w (Bytes.unsafe_to_string blk) 0
  end;
  let r1 = if join > 0 then 0 else r1 in
  let q2 = p2 + join and m2 = n2 - join in
  let full2 = m2 / 64 in
  for i = 0 to full2 - 1 do
    compress h w s2 (q2 + (64 * i))
  done;
  let r2 = m2 - (64 * full2) in
  (* Padding: the [r1 + r2 < 64] leftover bytes, 0x80, zeros and the
     big-endian bit length, in one block or two. *)
  let rem = r1 + r2 in
  let tail_len = if rem < 56 then 64 else 128 in
  let tail = st.tail in
  Bytes.fill tail 0 tail_len '\000';
  Bytes.blit_string s1 (p1 + n1 - r1) tail 0 r1;
  Bytes.blit_string s2 (q2 + (64 * full2)) tail r1 r2;
  Bytes.unsafe_set tail rem '\x80';
  Bytes.set_int64_be tail (tail_len - 8) (Int64.of_int (total * 8));
  compress h w (Bytes.unsafe_to_string tail) 0;
  if tail_len = 128 then compress h w (Bytes.unsafe_to_string tail) 64;
  st.blocks <- st.blocks + ((total + 8) / 64) + 1;
  let out = Bytes.create 32 in
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int (Array.unsafe_get h i))
  done;
  Bytes.unsafe_to_string out

let digest_substring s ~pos ~len =
  assert (pos >= 0 && len >= 0 && pos + len <= String.length s);
  digest2 (Domain.DLS.get state_key) s pos len "" 0 0

let digest_string s = digest2 (Domain.DLS.get state_key) s 0 (String.length s) "" 0 0

(* The last 8 bytes of [s], or its length when it is shorter. *)
let tail8 s =
  let n = String.length s in
  if n >= 8 then Int64.to_int (String.get_int64_le s (n - 8)) else n

let memo_slot a b =
  let h = (tail8 a * 0x2545F4914F6CDD1D) lxor tail8 b in
  (h * 0x2545F4914F6CDD1D) lsr (Sys.int_size - memo_bits)

let digest_concat a b =
  let st = Domain.DLS.get state_key in
  let na = String.length a and nb = String.length b in
  if na + nb > memo_max then digest2 st a 0 na b 0 nb
  else begin
    let i = memo_slot a b in
    if
      String.equal (Array.unsafe_get st.left i) a
      && String.equal (Array.unsafe_get st.right i) b
    then Array.unsafe_get st.out i
    else begin
      let d = digest2 st a 0 na b 0 nb in
      Array.unsafe_set st.left i a;
      Array.unsafe_set st.right i b;
      Array.unsafe_set st.out i d;
      d
    end
  end

(* Read-only view; [digest2] never writes to its inputs. *)
let digest_bytes b = digest_string (Bytes.unsafe_to_string b)

let to_hex d =
  let buf = Buffer.create 64 in
  String.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%02x" (Char.code c))) d;
  Buffer.contents buf
