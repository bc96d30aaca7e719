(* SplitMix64: fast, high-quality 64-bit generator with cheap stream
   splitting. Reference: Steele, Lea, Flood, "Fast splittable
   pseudorandom number generators", OOPSLA 2014. *)

(* The 64-bit state is kept as the float with the same bits: a record
   of floats stores them unboxed, so a generator is two words (header
   and state) and a draw writes the state back without boxing it. With
   [int64] and [mix64] inlined, a draw of [int], [bool] or [bytes]
   allocates nothing. *)
type t = { mutable bits : float }

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let create seed = { bits = Int64.float_of_bits seed }

let[@inline] int64 t =
  let state = Int64.add (Int64.bits_of_float t.bits) golden_gamma in
  t.bits <- Int64.float_of_bits state;
  mix64 state

let split t =
  let seed = int64 t in
  create (mix64 seed)

let int t bound =
  assert (bound > 0);
  let v = Int64.to_int (Int64.shift_right_logical (int64 t) 2) in
  v mod bound

let float t bound =
  (* 53 random bits mapped to [0, 1), then scaled. *)
  let bits = Int64.shift_right_logical (int64 t) 11 in
  Int64.to_float bits /. 9007199254740992.0 *. bound

let bool t = Int64.logand (int64 t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  (* Avoid log 0. *)
  let u = if u <= 0.0 then 1e-12 else u in
  -.mean *. log u

let uniform_range t lo hi = lo +. float t (hi -. lo)

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))

let shuffle t arr =
  let n = Array.length arr in
  for i = n - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done

let bytes t n =
  let b = Bytes.create n in
  let i = ref 0 in
  while !i < n do
    let v = ref (int64 t) in
    let k = Stdlib.min 8 (n - !i) in
    for j = 0 to k - 1 do
      Bytes.set b (!i + j) (Char.chr (Int64.to_int (Int64.logand !v 0xFFL)));
      v := Int64.shift_right_logical !v 8
    done;
    i := !i + k
  done;
  b
