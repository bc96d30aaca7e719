(* Tests for the discrete-event simulation substrate. *)

open Dessim

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Time                                                               *)
(* ------------------------------------------------------------------ *)

let test_time_units () =
  check_int "us" 1_000 (Time.us 1);
  check_int "ms" 1_000_000 (Time.ms 1);
  check_int "sec" 1_000_000_000 (Time.sec 1);
  check_int "of_sec_f" 1_500_000_000 (Time.of_sec_f 1.5);
  check_int "of_us_f" 2_500 (Time.of_us_f 2.5)

let test_time_arith () =
  check_int "add" (Time.ms 3) (Time.add (Time.ms 1) (Time.ms 2));
  check_int "sub" (Time.ms 1) (Time.sub (Time.ms 3) (Time.ms 2));
  check_int "mul_f" (Time.ms 2) (Time.mul_f (Time.ms 4) 0.5);
  Alcotest.(check (float 1e-9)) "to_sec_f" 0.25 (Time.to_sec_f (Time.ms 250));
  Alcotest.(check (float 1e-9)) "to_ms_f" 1.5 (Time.to_ms_f (Time.us 1500))

let test_time_pp () =
  Alcotest.(check string) "ns" "12ns" (Time.to_string (Time.ns 12));
  Alcotest.(check string) "us" "2.00us" (Time.to_string (Time.us 2));
  Alcotest.(check string) "ms" "3.00ms" (Time.to_string (Time.ms 3));
  Alcotest.(check string) "s" "4.000s" (Time.to_string (Time.sec 4))

(* ------------------------------------------------------------------ *)
(* Rng                                                                *)
(* ------------------------------------------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create 42L and b = Rng.create 42L in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Rng.int64 a) (Rng.int64 b)
  done

let test_rng_split_independent () =
  let a = Rng.create 42L in
  let b = Rng.split a in
  let xs = List.init 10 (fun _ -> Rng.int64 a) in
  let ys = List.init 10 (fun _ -> Rng.int64 b) in
  check_bool "streams differ" true (xs <> ys)

let test_rng_int_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.int r 17 in
    check_bool "in range" true (v >= 0 && v < 17)
  done

let test_rng_float_bounds () =
  let r = Rng.create 7L in
  for _ = 1 to 1000 do
    let v = Rng.float r 3.5 in
    check_bool "in range" true (v >= 0.0 && v < 3.5)
  done

let test_rng_exponential_mean () =
  let r = Rng.create 11L in
  let n = 20_000 in
  let total = ref 0.0 in
  for _ = 1 to n do
    let v = Rng.exponential r ~mean:2.0 in
    check_bool "positive" true (v >= 0.0);
    total := !total +. v
  done;
  let mean = !total /. float_of_int n in
  check_bool "mean close to 2" true (mean > 1.9 && mean < 2.1)

let test_rng_shuffle_permutation () =
  let r = Rng.create 3L in
  let arr = Array.init 50 (fun i -> i) in
  Rng.shuffle r arr;
  let sorted = Array.copy arr in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 50 (fun i -> i)) sorted

let test_rng_bytes_len () =
  let r = Rng.create 5L in
  List.iter
    (fun n -> check_int "length" n (Bytes.length (Rng.bytes r n)))
    [ 0; 1; 7; 8; 9; 64; 1000 ]

(* The first 16 outputs of [int64], [int r 1_000_000_007], [float r 1.]
   and [exponential ~mean:2.5] for three seeds, and of one split stream
   with the next output of the stream it was split from. Every run's randomness comes
   from this stream, so it is pinned bit for bit: a change of the
   generator's representation must not move it. Floats are compared
   by their bits. *)
let rng_pins =
  [
    ( 1L,
      [
        0x910a2dec89025cc1L; 0xbeeb8da1658eec67L; 0xf893a2eefb32555eL; 0x71c18690ee42c90bL;
        0x71bb54d8d101b5b9L; 0xc34d0bff90150280L; 0xe099ec6cd7363ca5L; 0x85e7bb0f12278575L;
        0x491718de357e3da8L; 0xcb435c8e74616796L; 0x6775dc7701564f61L; 0x9afcd44d14cf8bfeL;
        0x7476cf8a4baa5dc0L; 0x87b341d690d7a28aL; 0x6f9b6dae6f4c57a8L; 0x2ac2ce17a5794a3bL ],
      [
        510577084; 691428183; 225004110; 110728840; 940077132; 88526880; 713570260;
        131464052; 756354344; 380018104; 419406745; 330615550; 447132292; 328178942;
        816042286; 615459508 ],
      [
        0x1.22145bd91204bp-1; 0x1.7dd71b42cb1ddp-1; 0x1.f12745ddf664ap-1;
        0x1.c7061a43b90b2p-2; 0x1.c6ed53634406cp-2; 0x1.869a17ff202ap-1;
        0x1.c133d8d9ae6c7p-1; 0x1.0bcf761e244fp-1; 0x1.245c6378d5f8ep-2;
        0x1.9686b91ce8c2cp-1; 0x1.9dd771dc05592p-2; 0x1.35f9a89a299f1p-1;
        0x1.d1db3e292ea96p-2; 0x1.0f6683ad21af4p-1; 0x1.be6db6b9bd314p-2;
        0x1.561670bd2bca4p-3 ],
      [
        0x1.6ba0e4803387fp+0; 0x1.7773d796b4144p-1; 0x1.2d526d74a05dfp-4;
        0x1.038f1d2a96f49p+1; 0x1.03a08a54daaf8p+1; 0x1.5a69e55fda3f6p-1;
        0x1.4efa5d336c138p-2; 0x1.9ebfc0f7e5fe7p+0; 0x1.911d5048b42ecp+1;
        0x1.2743f12b3160ap-1; 0x1.21ea95311de38p+1; 0x1.412c319c1ccbfp+0;
        0x1.f80f74c1d5121p+0; 0x1.963a098d6a58dp+0; 0x1.09a95c750896dp+1;
        0x1.1e540c7e45915p+2 ] );
    ( 42L,
      [
        0xbdd732262feb6e95L; 0x28efe333b266f103L; 0x47526757130f9f52L; 0x581ce1ff0e4ae394L;
        0x9bc585a244823f2L; 0xde4431fa3c80db06L; 0x37e9671c45376d5dL; 0xccf635ee9e9e2fa4L;
        0x5705b8770b3d7dd5L; 0x9e54d738297f77aeL; 0x3474724a775b19bfL; 0x7e348a0e451650beL;
        0x836ded897f3e46e6L; 0x851f977347ed6db7L; 0xaa47e31c02e78edcL; 0x341452c54d7c33f2L ],
      [
        249768340; 869527453; 121944468; 953467420; 307808447; 387780494; 143893034;
        901104342; 429534045; 96951697; 241973209; 450705678; 984426131; 389589051;
        337836908; 649869638 ],
      [
        0x1.7bae644c5fd6dp-1; 0x1.477f199d93378p-3; 0x1.1d499d5c4c3e6p-2;
        0x1.607387fc392b8p-2; 0x1.378b0b448904p-5; 0x1.bc8863f47901bp-1;
        0x1.bf4b38e229bb4p-3; 0x1.99ec6bdd3d3c5p-1; 0x1.5c16e1dc2cf5ep-2;
        0x1.3ca9ae7052feep-1; 0x1.a3a39253bad8cp-3; 0x1.f8d2283914594p-2;
        0x1.06dbdb12fe7c8p-1; 0x1.0a3f2ee68fdadp-1; 0x1.548fc63805cf1p-1;
        0x1.a0a2962a6be18p-3 ],
      [
        0x1.7eb5e739732f4p-1; 0x1.254d7b8bf9696p+2; 0x1.98f3a4abdc3b1p+1;
        0x1.554c8b17397aep+1; 0x1.058ccf8dd1f3p+3; 0x1.69baeac629d84p-2;
        0x1.e6d95ac87e9cbp+1; 0x1.1c9cf6dfbfffdp-1; 0x1.5948b467d47bfp+1;
        0x1.338300f09316dp+0; 0x1.fb4592c5bfe93p+1; 0x1.c4a6cbb8a6584p+0;
        0x1.aab15e7eabf68p+0; 0x1.a27f1f4055ceap+0; 0x1.04f23ef28b729p+0;
        0x1.fd921460444bcp+1 ] );
    ( 0x9E3779B97F4A7C15L,
      [
        0x6e789e6aa1b965f4L; 0x6c45d188009454fL; 0xf88bb8a8724c81ecL; 0x1b39896a51a8749bL;
        0x53cb9f0c747ea2eaL; 0x2c829abe1f4532e1L; 0xc584133ac916ab3cL; 0x3ee5789041c98ac3L;
        0xf3b8488c368cb0a6L; 0x657eecdd3cb13d09L; 0xc2d326e0055bdef6L; 0x8621a03fe0bbdb7bL;
        0x8e1f7555983aa92fL; 0xb54e0f1600cc4d19L; 0x84bb3f97971d80abL; 0x7d29825c75521255L ],
      [
        618087613; 14556641; 853315927; 173460857; 749125049; 887308728; 493173648;
        316873850; 761498918; 162909401; 194538742; 967827470; 115804329; 193675342;
        752282079; 817715738 ],
      [
        0x1.b9e279aa86e58p-2; 0x1.b1174620025p-6; 0x1.f1177150e499p-1; 0x1.b39896a51a87p-4;
        0x1.4f2e7c31d1fa8p-2; 0x1.6414d5f0fa298p-3; 0x1.8b082675922d5p-1;
        0x1.f72bc4820e4c4p-3; 0x1.e77091186d196p-1; 0x1.95fbb374f2c4ep-2;
        0x1.85a64dc00ab7bp-1; 0x1.0c43407fc177bp-1; 0x1.1c3eeaab30755p-1;
        0x1.6a9c1e2c01989p-1; 0x1.09767f2f2e3bp-1; 0x1.f4a60971d5484p-2 ],
      [
        0x1.0cef7164b212p+1; 0x1.22a626bf7f41cp+3; 0x1.2e98821c5ff81p-4;
        0x1.669171539dc15p+2; 0x1.656034996fc49p+1; 0x1.17e9de1df1abcp+2;
        0x1.4bfa84108fcafp-1; 0x1.c12e337dc3571p+1; 0x1.f760c34f6ba36p-4;
        0x1.280d1ba0c763ep+1; 0x1.5d89c51131e0ap-1; 0x1.9dab46d3f3eacp+0;
        0x1.78a171d42e3b7p+0; 0x1.b998aeed0fc49p-1; 0x1.a4623d940583cp+0;
        0x1.c9f68f6eb1446p+0 ] )
  ]

let rng_split_pin =
  [
    0xf33dc6bd55ffa86bL; 0xe1332a7db412c5a9L; 0xe6af094f768935b3L; 0xfdf2d08f5c29727L;
    0xba657f8e9030a6f9L; 0x29284f19efd46b47L; 0x3a16c2caea412322L; 0xaeb6a94d34aa8643L;
    0xe4b3086004ea0c08L; 0xa420dadc022663c8L; 0x56af9fa6a8749ec5L; 0xbb16dfd9c21e4fd5L;
    0x7af3056c8c38b722L; 0xd3712b7ea3d2045fL; 0x32e690b064f30ca9L; 0xeba6dac3791d436cL ]

let rng_split_source_next = 0x44c3cd7f43c661cL

let test_rng_pinned () =
  let draws n f = List.init n (fun _ -> f ()) in
  let bits = List.map Int64.bits_of_float in
  List.iter
    (fun (seed, i64, ints, floats, exps) ->
      let what kind = Printf.sprintf "seed %Ld: %s" seed kind in
      let r = Rng.create seed in
      Alcotest.(check (list int64)) (what "int64") i64 (draws 16 (fun () -> Rng.int64 r));
      let r = Rng.create seed in
      Alcotest.(check (list int)) (what "int") ints
        (draws 16 (fun () -> Rng.int r 1_000_000_007));
      let r = Rng.create seed in
      Alcotest.(check (list int64)) (what "float") (bits floats)
        (bits (draws 16 (fun () -> Rng.float r 1.0)));
      let r = Rng.create seed in
      Alcotest.(check (list int64)) (what "exponential") (bits exps)
        (bits (draws 16 (fun () -> Rng.exponential r ~mean:2.5))))
    rng_pins;
  let source = Rng.create 7L in
  let s = Rng.split source in
  Alcotest.(check (list int64)) "split stream" rng_split_pin (draws 16 (fun () -> Rng.int64 s));
  Alcotest.(check int64) "source after the split" rng_split_source_next (Rng.int64 source)

(* Every message draws its jitter from an rng: a draw allocates
   nothing. *)
let test_rng_int_allocates_nothing () =
  let r = Rng.create 3L in
  let sum = ref 0 in
  (* The probe itself boxes a float: measure it empty first. *)
  let w0 = Gc.minor_words () in
  let w1 = Gc.minor_words () in
  for _ = 1 to 100_000 do
    sum := !sum + Rng.int r 1000
  done;
  let w2 = Gc.minor_words () in
  Alcotest.(check (float 0.0)) "minor words over 10^5 Rng.int draws" 0.0
    (w2 -. w1 -. (w1 -. w0));
  check_bool "draws in range" true (!sum >= 0 && !sum < 100_000_000)

let prop_rng_int_uniformish =
  QCheck.Test.make ~name:"rng ints hit all small buckets"
    QCheck.(int_bound 1000)
    (fun seed ->
      let r = Rng.create (Int64.of_int (seed + 1)) in
      let seen = Array.make 8 false in
      for _ = 1 to 400 do
        seen.(Rng.int r 8) <- true
      done;
      Array.for_all (fun b -> b) seen)

(* ------------------------------------------------------------------ *)
(* Heap                                                               *)
(* ------------------------------------------------------------------ *)

(* Push for the tests that never remove: the slot handle is dropped. *)
let push h ~key ~seq v = ignore (Heap.push h ~key ~seq v)

(* Pop every entry through the one pop API: read the key, then pop. *)
let drain_heap h =
  let rec go acc =
    if Heap.is_empty h then List.rev acc
    else
      let k = Heap.min_key h in
      let v = Heap.pop_min h in
      go ((k, v) :: acc)
  in
  go []

let test_heap_order () =
  let h = Heap.create () in
  List.iteri (fun i k -> push h ~key:k ~seq:i k) [ 5; 3; 9; 1; 7; 3 ];
  Alcotest.(check (list int)) "sorted" [ 1; 3; 3; 5; 7; 9 ]
    (List.map fst (drain_heap h))

let test_heap_fifo_ties () =
  let h = Heap.create () in
  List.iteri (fun i v -> push h ~key:10 ~seq:i v) [ "a"; "b"; "c" ];
  Alcotest.(check (list string)) "fifo" [ "a"; "b"; "c" ]
    (List.map snd (drain_heap h))

let test_heap_empty () =
  let h = Heap.create () in
  check_bool "empty" true (Heap.is_empty h);
  Alcotest.check_raises "pop_min on empty"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () -> Heap.pop_min h);
  Alcotest.check_raises "min_key on empty"
    (Invalid_argument "Heap.min_key: empty heap") (fun () ->
      ignore (Heap.min_key h));
  (* Emptied by pops rather than never filled: the same answers. *)
  push h ~key:1 ~seq:0 ();
  Heap.pop_min h;
  check_bool "empty again" true (Heap.is_empty h);
  Alcotest.check_raises "pop_min after draining"
    (Invalid_argument "Heap.pop_min: empty heap") (fun () -> Heap.pop_min h)

let test_heap_clear () =
  let h = Heap.create () in
  push h ~key:1 ~seq:0 ();
  Heap.clear h;
  check_bool "cleared" true (Heap.is_empty h)

let test_heap_drops_popped_references () =
  (* Popped and cleared slots must not keep their values alive: track
     each pushed value with a weak pointer and check it is collected
     once it leaves the heap, even though the heap itself stays live. *)
  let h = Heap.create () in
  let n = 8 in
  let weak = Weak.create n in
  for i = 0 to n - 1 do
    let v = ref i in
    Weak.set weak i (Some v);
    push h ~key:i ~seq:i v
  done;
  for i = 0 to (n / 2) - 1 do
    check_int "pop order" i (Heap.min_key h);
    ignore (Heap.pop_min h);
    Gc.full_major ();
    check_bool
      (Printf.sprintf "popped value %d collected" i)
      true
      (Weak.get weak i = None);
    check_bool
      (Printf.sprintf "resident value %d retained" (i + 1))
      true
      (Weak.get weak (n - 1) <> None)
  done;
  Heap.clear h;
  Gc.full_major ();
  for i = n / 2 to n - 1 do
    check_bool
      (Printf.sprintf "cleared value %d collected" i)
      true
      (Weak.get weak i = None)
  done;
  (* The heap stays usable after the clear. *)
  push h ~key:42 ~seq:0 (ref 42);
  check_int "usable after clear" 42 (Heap.min_key h)

let test_heap_drops_removed_references () =
  (* A removed entry's pool slot must not keep its value alive, and the
     slot is reused without disturbing the entries that stayed. *)
  let h = Heap.create () in
  let n = 100 in
  let weak = Weak.create n in
  let slots =
    Array.init n (fun i ->
        let v = ref i in
        Weak.set weak i (Some v);
        Heap.push h ~key:(n - i) ~seq:i v)
  in
  Array.iteri (fun i slot -> if i mod 3 <> 0 then Heap.remove h slot) slots;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check_bool
      (Printf.sprintf "value %d %s" i (if i mod 3 = 0 then "retained" else "collected"))
      (i mod 3 = 0)
      (Weak.get weak i <> None)
  done;
  Alcotest.check_raises "removing a vacated slot"
    (Invalid_argument "Heap.remove: slot not queued") (fun () -> Heap.remove h slots.(1));
  for i = 0 to 9 do
    push h ~key:0 ~seq:(n + i) (ref (-1))
  done;
  check_int "size" (((n + 2) / 3) + 10) (Heap.size h);
  let popped = List.map (fun (_, v) -> !v) (drain_heap h) in
  Alcotest.(check (list int)) "survivors in order after the new entries"
    (List.init 10 (fun _ -> -1)
    @ List.filter (fun i -> i mod 3 = 0) (List.init n (fun i -> n - 1 - i)))
    popped

let prop_heap_sorts =
  QCheck.Test.make ~name:"heap pops in key order"
    QCheck.(list (int_bound 10_000))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> push h ~key:k ~seq:i ()) keys;
      List.map fst (drain_heap h) = List.sort compare keys)

let prop_heap_tie_total_order =
  (* Keys drawn from {0..3} so almost every pop is a tie: the (key, seq)
     order must be total — pops equal a stable sort of the insertion
     sequence, which is what makes whole simulations replayable. *)
  QCheck.Test.make ~name:"same-key pops follow insertion order"
    QCheck.(list_of_size Gen.(int_range 0 200) (int_bound 3))
    (fun keys ->
      let h = Heap.create () in
      List.iteri (fun i k -> push h ~key:k ~seq:i (k, i)) keys;
      List.map snd (drain_heap h)
      = List.stable_sort
          (fun (a, _) (b, _) -> compare a b)
          (List.mapi (fun i k -> (k, i)) keys))

(* Model test: random interleavings of heap operations, checked step by
   step against a list kept sorted by (key, seq). Keys come from {0..7}
   so most comparisons are ties. An entry's value is its (key, seq)
   and the slot [push] returned for it: [Remove i] removes the i-th
   entry of the model (mod its length) from both, by that slot, as the
   engine removes a cancelled event. *)
type heap_op = Push of int | Pop | Remove of int

let print_heap_op = function
  | Push k -> Printf.sprintf "push %d" k
  | Pop -> "pop"
  | Remove i -> Printf.sprintf "remove %d" i

let heap_matches_model ops =
  let h = Heap.create () in
  let rec insert e = function
    | [] -> [ e ]
    | x :: rest as l ->
      let k (key, seq, _) = (key, seq) in
      if compare (k e) (k x) < 0 then e :: l else x :: insert e rest
  in
  let model = ref [] and seq = ref 0 in
  let consistent () =
    Heap.size h = List.length !model
    && match !model with [] -> Heap.is_empty h | (key, _, _) :: _ -> Heap.min_key h = key
  in
  let step = function
    | Push key ->
      incr seq;
      let slot = ref (-1) in
      let v = (key, !seq, slot) in
      slot := Heap.push h ~key ~seq:!seq v;
      model := insert v !model
    | Pop -> (
      match !model with
      | [] -> ()
      | v :: rest ->
        model := rest;
        (* The very entry the model expects, not an equal one. *)
        if Heap.pop_min h != v then failwith "pop surfaced another entry")
    | Remove i -> (
      match !model with
      | [] -> ()
      | l ->
        let ((_, _, slot) as v) = List.nth l (i mod List.length l) in
        Heap.remove h !slot;
        model := List.filter (fun e -> e != v) l)
  in
  List.for_all (fun op -> step op; consistent ()) ops
  && List.map (fun (k, s, _) -> (k, s)) (List.map snd (drain_heap h))
     = List.map (fun (k, s, _) -> (k, s)) !model

let heap_model_test ~name ?(count = 200) ops =
  QCheck.Test.make ~count ~name
    (QCheck.make ~print:QCheck.Print.(list print_heap_op) ~shrink:QCheck.Shrink.list ops)
    heap_matches_model

let push_gen = QCheck.Gen.(map (fun k -> Push k) (int_bound 7))

(* Pushes outnumber pops three to one, so the heap crosses its 64 ->
   128 -> 256 growth boundaries (and pops across them). *)
let prop_heap_matches_sorted_model =
  heap_model_test ~name:"interleaved push/pop_min matches a sorted-list model"
    QCheck.Gen.(
      list_size (int_range 0 1200) (frequency [ (3, push_gen); (1, return Pop) ]))

let prop_heap_interleaved_removes =
  heap_model_test ~name:"interleaved removes match the model"
    QCheck.Gen.(
      list_size (int_range 0 1200)
        (frequency
           [ (6, push_gen); (2, return Pop); (3, map (fun i -> Remove i) nat) ]))

(* Bursts that fill past a growth boundary, drain most of the heap and
   fill again: pool slots freed by pops are handed out again, before
   and after the pool grows, while older entries stay put. *)
let prop_heap_slot_reuse_across_growth =
  heap_model_test ~count:100 ~name:"slot reuse across growth matches the model"
    QCheck.Gen.(
      map List.concat
        (list_size (int_range 1 6)
           (map2
              (fun pushes pops ->
                List.init pushes (fun k -> Push (k land 7)) @ List.init pops (fun _ -> Pop))
              (int_range 1 300) (int_range 0 300))))

(* Remove most of a large heap of ties, at every depth and across the
   growth boundaries, and keep going: what stays pops in exactly its
   (key, seq) order. *)
let prop_heap_mass_removes =
  heap_model_test ~count:100 ~name:"mass removes keep the (key, seq) order"
    QCheck.Gen.(
      map List.concat
        (list_size (int_range 1 4)
           (map3
              (fun pushes removes pops ->
                pushes @ List.map (fun i -> Remove i) removes
                @ List.init pops (fun _ -> Pop))
              (list_size (int_range 0 300) push_gen)
              (list_size (int_range 0 300) nat)
              (int_range 0 50))))

(* ------------------------------------------------------------------ *)
(* Engine                                                             *)
(* ------------------------------------------------------------------ *)

let test_engine_runs_in_order () =
  let e = Engine.create () in
  let log = ref [] in
  let record tag () = log := (tag, Engine.now e) :: !log in
  ignore (Engine.after e (Time.ms 3) (record "c"));
  ignore (Engine.after e (Time.ms 1) (record "a"));
  ignore (Engine.after e (Time.ms 2) (record "b"));
  Engine.run e;
  let expected =
    [ ("a", Time.ms 1); ("b", Time.ms 2); ("c", Time.ms 3) ]
  in
  Alcotest.(check (list (pair string int))) "order" expected (List.rev !log)

let test_engine_until () =
  let e = Engine.create () in
  let fired = ref false in
  ignore (Engine.after e (Time.ms 10) (fun () -> fired := true));
  Engine.run ~until:(Time.ms 5) e;
  check_bool "not yet" false !fired;
  check_int "clock at horizon" (Time.ms 5) (Engine.now e);
  Engine.run ~until:(Time.ms 20) e;
  check_bool "fired" true !fired;
  check_int "clock at second horizon" (Time.ms 20) (Engine.now e)

let test_engine_cancel () =
  let e = Engine.create () in
  let fired = ref false in
  let t = Engine.after e (Time.ms 1) (fun () -> fired := true) in
  check_bool "pending" true (Engine.pending t);
  Engine.cancel e t;
  Engine.run e;
  check_bool "cancelled" false !fired;
  check_bool "not pending" false (Engine.pending t)

let test_engine_cancel_keeps_order () =
  (* 120 events over 4 instants, scheduled in a scrambled order;
     cancelling 80 of them takes them out of the heap at once, and the
     survivors fire in (instant, scheduling) order. *)
  let e = Engine.create () in
  let fired = ref [] in
  let timers =
    Array.init 120 (fun i ->
        let at = Time.ms (1 + (i * 7 mod 4)) in
        (at, i, Engine.at e at (fun () -> fired := i :: !fired)))
  in
  check_int "queued" 120 (Engine.queue_size e);
  Array.iter (fun (_, i, t) -> if i mod 3 <> 0 then Engine.cancel e t) timers;
  check_int "cancelled events leave the queue" 40 (Engine.queue_size e);
  check_int "peak" 120 (Engine.queue_peak e);
  Engine.run e;
  let expected =
    Array.to_list timers
    |> List.filter (fun (_, i, _) -> i mod 3 = 0)
    |> List.stable_sort (fun (a, _, _) (b, _, _) -> compare a b)
    |> List.map (fun (_, i, _) -> i)
  in
  Alcotest.(check (list int)) "survivors in order" expected (List.rev !fired);
  check_int "drained" 0 (Engine.queue_size e);
  check_int "events" 40 (Engine.events_processed e)

(* Arm an event whose action alone holds a fresh block, and return the
   timer with a weak pointer to the block. Not inlined, so no register
   or stack slot of the caller keeps the block alive. *)
let[@inline never] arm_holding_block e weak =
  let block = Sys.opaque_identity (ref 0) in
  Weak.set weak 0 (Some block);
  Engine.after e (Time.ms 2) (fun () -> incr block)

let test_engine_cancel_frees_action () =
  (* Live events stay queued on both sides of the cancelled one, so
     the heap is never empty or mostly cancelled: a cancelled event
     that waited in the heap to be popped would keep its closure, and
     the block only the closure holds, reachable. *)
  let e = Engine.create () in
  let fired = ref 0 in
  ignore (Engine.after e (Time.ms 1) (fun () -> incr fired));
  ignore (Engine.after e (Time.ms 3) (fun () -> incr fired));
  let weak = Weak.create 1 in
  let t = arm_holding_block e weak in
  Engine.cancel e t;
  Gc.full_major ();
  check_bool "the cancelled action's block is collected" true (Weak.get weak 0 = None);
  check_int "only live events queued" 2 (Engine.queue_size e);
  (* A cancelled timer re-arms at once, with live events around it. *)
  let r = Engine.timer (fun () -> incr fired) in
  Engine.rearm e r (Time.ms 4);
  Engine.cancel e r;
  Engine.rearm e r (Time.ms 5);
  Engine.run e;
  check_int "the live events and the re-armed timer fired" 3 !fired;
  check_int "at the re-armed instant" (Time.ms 5) (Engine.now e)

let test_engine_rearm () =
  let e = Engine.create () in
  let count = ref 0 in
  let t = Engine.timer (fun () -> incr count) in
  check_bool "made idle" false (Engine.pending t);
  Engine.rearm e t (Time.ms 1);
  Alcotest.check_raises "re-arming a scheduled timer"
    (Invalid_argument "Engine.rearm: timer is scheduled") (fun () ->
      Engine.rearm e t (Time.ms 2));
  Engine.run e;
  check_int "fired once" 1 !count;
  Engine.rearm e t (Time.ms 3);
  Engine.run ~until:(Time.ms 2) e;
  check_bool "pending again" true (Engine.pending t);
  Engine.run e;
  check_int "fired twice" 2 !count;
  check_int "at the re-armed instant" (Time.ms 3) (Engine.now e);
  Engine.rearm e t (Time.ms 4);
  Engine.cancel e t;
  Engine.rearm e t (Time.ms 5);
  Engine.run e;
  check_int "a cancelled timer re-arms" 3 !count

let test_engine_stop () =
  let e = Engine.create () in
  let count = ref 0 in
  for _ = 1 to 10 do
    ignore
      (Engine.after e (Time.ms 1) (fun () ->
           incr count;
           if !count = 3 then Engine.stop e))
  done;
  Engine.run e;
  check_int "stopped after 3" 3 !count;
  Engine.run e;
  check_int "resumes" 10 !count

let test_engine_nested_schedule () =
  let e = Engine.create () in
  let finish = ref Time.zero in
  ignore
    (Engine.after e (Time.ms 1) (fun () ->
         ignore
           (Engine.after e (Time.ms 1) (fun () -> finish := Engine.now e))));
  Engine.run e;
  check_int "nested time" (Time.ms 2) !finish

let test_engine_same_time_fifo () =
  let e = Engine.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Engine.after e (Time.ms 1) (fun () -> log := i :: !log))
  done;
  Engine.run e;
  Alcotest.(check (list int)) "fifo ties" [ 1; 2; 3; 4; 5 ] (List.rev !log)

let test_engine_events_processed () =
  let e = Engine.create () in
  for _ = 1 to 4 do
    ignore (Engine.after e Time.zero (fun () -> ()))
  done;
  Engine.run e;
  check_int "processed" 4 (Engine.events_processed e)

let test_engine_past_event_clamped () =
  let e = Engine.create () in
  ignore (Engine.after e (Time.ms 5) (fun () ->
      (* Scheduling "in the past" must not move the clock backwards. *)
      ignore (Engine.at e (Time.ms 1) (fun () ->
          check_int "clamped to now" (Time.ms 5) (Engine.now e)))));
  Engine.run e

(* Ticks land on [epoch + k*period]. A tick that stops the series
   arms no further one, so no event follows it; a stop from outside
   leaves the pending tick, which then runs nothing. *)
let test_engine_every () =
  let e = Engine.create () in
  let fired = ref [] in
  let stop = ref ignore in
  stop :=
    Engine.every e (Time.ms 10) (fun () ->
        fired := Engine.now e :: !fired;
        if Engine.now e >= Time.ms 30 then !stop ());
  Engine.run e;
  Alcotest.(check (list int)) "ticks on the grid"
    [ Time.ms 10; Time.ms 20; Time.ms 30 ] (List.rev !fired);
  check_int "no event after the stopping tick" 3 (Engine.events_processed e);
  check_int "clock rests at the last tick" (Time.ms 30) (Engine.now e);
  let outside = ref 0 in
  let stop = Engine.every e (Time.ms 10) (fun () -> incr outside) in
  Engine.run ~until:(Time.ms 55) e;
  stop ();
  check_int "an outside stop leaves the pending tick" 1 (Engine.queue_size e);
  Engine.run e;
  check_int "which runs nothing" 2 !outside

(* ------------------------------------------------------------------ *)
(* Engine choice seam (the model checker's scheduler hook)            *)
(* ------------------------------------------------------------------ *)

let test_choice_passthrough_when_off () =
  let e = Engine.create () in
  let fired = ref Time.zero in
  ignore
    (Engine.at_choice e (Time.ms 2) ~src:0 ~dst:1 ~label:"m" (fun () ->
         fired := Engine.now e));
  Engine.run e;
  check_int "fires like a plain event" (Time.ms 2) !fired;
  check_int "nothing parked" 0 (Engine.pending_choice_count e)

let test_choice_capture_parks_and_fires () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.set_choice_capture e true;
  ignore
    (Engine.at_choice e (Time.ms 1) ~src:0 ~dst:1 ~label:"a" (fun () ->
         log := ("a", Engine.now e) :: !log));
  ignore
    (Engine.at_choice e (Time.ms 2) ~src:0 ~dst:2 ~label:"b" (fun () ->
         log := ("b", Engine.now e) :: !log));
  Engine.run ~until:(Time.ms 10) e;
  check_bool "parked past their instants" true (!log = []);
  (match Engine.pending_choices e with
   | [ a; b ] ->
     check_bool "listed in id order" true (a.Engine.id < b.Engine.id);
     Alcotest.(check string) "label" "a" a.Engine.label;
     check_int "src" 0 b.Engine.src;
     check_int "dst" 2 b.Engine.dst;
     (* Fire against timestamp order: the checker's whole point. *)
     check_bool "fire b" true (Engine.fire_choice e b.Engine.id);
     check_bool "fire a" true (Engine.fire_choice e a.Engine.id)
   | other -> Alcotest.failf "expected 2 parked choices, got %d" (List.length other));
  (* Both ran at the clock — firing never advances virtual time — and
     in the chosen order, not key order. *)
  Alcotest.(check (list (pair string int)))
    "chosen order, at the clock"
    [ ("b", Time.ms 10); ("a", Time.ms 10) ]
    (List.rev !log);
  check_int "clock unmoved" (Time.ms 10) (Engine.now e);
  check_bool "unknown id refused" false (Engine.fire_choice e 999);
  check_int "all consumed" 0 (Engine.pending_choice_count e)

let test_choice_release_restores_timestamp_order () =
  let e = Engine.create () in
  let log = ref [] in
  Engine.set_choice_capture e true;
  ignore
    (Engine.at_choice e (Time.ms 5) ~src:0 ~dst:1 ~label:"late" (fun () ->
         log := ("late", Engine.now e) :: !log));
  ignore
    (Engine.at_choice e (Time.ms 3) ~src:0 ~dst:2 ~label:"early" (fun () ->
         log := ("early", Engine.now e) :: !log));
  Engine.run ~until:(Time.ms 1) e;
  Engine.set_choice_capture e false;
  Engine.release_choices e;
  Engine.run e;
  Alcotest.(check (list (pair string int)))
    "released back to key order"
    [ ("early", Time.ms 3); ("late", Time.ms 5) ]
    (List.rev !log)

let test_choice_release_clamps_past_keys () =
  let e = Engine.create () in
  let at = ref Time.zero in
  Engine.set_choice_capture e true;
  ignore
    (Engine.at_choice e (Time.ms 1) ~src:0 ~dst:1 ~label:"x" (fun () ->
         at := Engine.now e));
  (* The clock overtakes the parked key; release must not schedule into
     the past. *)
  Engine.run ~until:(Time.ms 8) e;
  Engine.release_choices e;
  Engine.run e;
  check_int "clamped to now" (Time.ms 8) !at

let test_choice_cancel_while_parked () =
  let e = Engine.create () in
  let fired = ref false in
  Engine.set_choice_capture e true;
  let t =
    Engine.at_choice e (Time.ms 1) ~src:0 ~dst:1 ~label:"x" (fun () ->
        fired := true)
  in
  Engine.run ~until:(Time.ms 2) e;
  Engine.cancel e t;
  check_int "cancelled choice not listed" 0 (Engine.pending_choice_count e);
  Engine.release_choices e;
  Engine.run e;
  check_bool "never fires" false !fired

(* ------------------------------------------------------------------ *)
(* Resource                                                           *)
(* ------------------------------------------------------------------ *)

let test_resource_fifo_service () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let log = ref [] in
  Resource.submit r ~cost:(Time.ms 2) (fun () -> log := ("a", Engine.now e) :: !log);
  Resource.submit r ~cost:(Time.ms 3) (fun () -> log := ("b", Engine.now e) :: !log);
  Engine.run e;
  let expected = [ ("a", Time.ms 2); ("b", Time.ms 5) ] in
  Alcotest.(check (list (pair string int))) "fifo completion" expected (List.rev !log)

let test_resource_idle_gap () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let done_at = ref Time.zero in
  Resource.submit r ~cost:(Time.ms 1) (fun () -> ());
  ignore
    (Engine.after e (Time.ms 10) (fun () ->
         Resource.submit r ~cost:(Time.ms 1) (fun () -> done_at := Engine.now e)));
  Engine.run e;
  check_int "starts at submission" (Time.ms 11) !done_at

let test_resource_charge_pushes_back () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let second = ref Time.zero in
  Resource.submit r ~cost:(Time.ms 1) (fun () ->
      (* The handler performs extra work: sending messages, MACs... *)
      Resource.charge r (Time.ms 4));
  Resource.submit r ~cost:(Time.ms 1) (fun () -> second := Engine.now e);
  Engine.run e;
  check_int "second delayed by charge" (Time.ms 6) !second

let test_resource_accounting () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  Resource.submit r ~cost:(Time.ms 2) (fun () -> ());
  Resource.submit r ~cost:(Time.ms 3) (fun () -> ());
  Engine.run e;
  check_int "busy total" (Time.ms 5) (Resource.busy_total r);
  check_int "jobs" 2 (Resource.jobs_served r);
  check_int "no backlog when idle" Time.zero (Resource.backlog r)

let prop_resource_completion_monotonic =
  QCheck.Test.make ~name:"resource completions are monotonic and FIFO"
    QCheck.(list_of_size Gen.(int_range 1 40) (int_range 0 1000))
    (fun costs ->
      let e = Engine.create () in
      let r = Resource.create e ~name:"cpu" in
      let completions = ref [] in
      List.iteri
        (fun i c ->
          Resource.submit r ~cost:(Time.us c) (fun () ->
              completions := (i, Engine.now e) :: !completions))
        costs;
      Engine.run e;
      let completions = List.rev !completions in
      let indices = List.map fst completions in
      let times = List.map snd completions in
      let rec sorted = function
        | [] | [ _ ] -> true
        | a :: b :: tl -> a <= b && sorted (b :: tl)
      in
      indices = List.init (List.length costs) (fun i -> i) && sorted times)

(* The O(1) running-sum backlog must agree with the O(n) fold over the
   queue at every observable instant: before and after each submit,
   after partial runs that land mid-service, inside handlers (including
   ones that [charge] extra work), and at drain. Jobs arrive in bursts
   of up to 12 between partial runs, so the waiting ring wraps around
   its end and grows while wrapped (its first size is 8). *)
let prop_resource_backlog_matches_fold =
  QCheck.Test.make ~name:"incremental backlog matches the fold reference"
    QCheck.(
      list_of_size
        Gen.(int_range 1 30)
        (quad (int_range 0 500) (int_range 0 400) bool (int_range 1 12)))
    (fun ops ->
      let e = Engine.create () in
      let r = Resource.create e ~name:"cpu" in
      let ok = ref true in
      let check () =
        if
          Resource.backlog r <> Resource.backlog_fold r
          || Resource.backlog r < Time.zero
        then ok := false
      in
      List.iter
        (fun (cost, advance, charges, burst) ->
          check ();
          for j = 1 to burst do
            Resource.submit r ~cost:(Time.us (cost + j)) (fun () ->
                if charges then Resource.charge r (Time.us 150);
                check ());
            check ()
          done;
          Engine.run ~until:(Time.add (Engine.now e) (Time.us advance)) e;
          check ())
        ops;
      (* A trailing [charge] can leave [busy_until] past the last event,
         so park the clock beyond every possible busy period before
         asserting the drained backlog is zero. *)
      ignore (Engine.after e (Time.of_sec_f 1.0) (fun () -> ()));
      Engine.run e;
      check ();
      !ok && Resource.backlog r = Time.zero && Resource.depth r = 0)

(* FIFO service across ring wrap-around and growth, against an exact
   model. Job [j] starts at max (its submission, the previous job's
   completion plus any [charge] its handler made) and completes [cost]
   later. The script wraps the ring (head advanced, tail past the end)
   and then makes it grow twice while wrapped; handlers charge as they
   go. *)
let test_resource_ring_wraps_and_grows () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let jobs = ref [] (* (id, submitted at, cost, charge), newest first *)
  and done_at = ref [] in
  let backlog_ok = ref true in
  let next = ref 0 in
  let submit ~cost ~charge =
    let id = !next in
    incr next;
    jobs := (id, Engine.now e, cost, charge) :: !jobs;
    Resource.submit r ~cost (fun () ->
        if charge > Time.zero then Resource.charge r charge;
        if Resource.backlog r <> Resource.backlog_fold r then backlog_ok := false;
        done_at := (id, Engine.now e) :: !done_at)
  in
  let charge_of id = if id mod 5 = 2 then Time.us 700 else Time.zero in
  let burst k =
    for _ = 1 to k do
      let id = !next in
      submit ~cost:(Time.us (100 + (37 * id mod 250))) ~charge:(charge_of id)
    done
  in
  burst 6;
  (* 1 in service, 5 waiting in an 8-slot ring. *)
  Engine.run ~until:(Time.us 900) e;
  check_bool "head advanced" true (Resource.depth r < 5);
  burst 6 (* fills the ring around its end *);
  burst 12 (* grows it twice, the first time while wrapped *);
  check_int "all queued behind the job in service" (!next - List.length !done_at - 1)
    (Resource.depth r);
  Engine.run ~until:(Time.us 2500) e;
  burst 3;
  Engine.run e;
  let expected =
    List.rev !jobs
    |> List.fold_left
         (fun (free, acc) (id, submitted, cost, charge) ->
           let finish = Time.add (Time.max submitted free) cost in
           (Time.add finish charge, (id, finish) :: acc))
         (Time.zero, [])
    |> snd |> List.rev
  in
  Alcotest.(check (list (pair int int)))
    "FIFO completions at the model's instants" expected (List.rev !done_at);
  check_bool "backlog matched the fold inside every handler" true !backlog_ok;
  check_int "drained" 0 (Resource.depth r)

(* A job's continuation must not outlive the job: neither the one that
   went straight into service nor one that waited in the ring. *)
let test_resource_drops_completed_continuations () =
  let e = Engine.create () in
  let r = Resource.create e ~name:"cpu" in
  let n = 4 in
  let weak = Weak.create n in
  let ran = ref 0 in
  for i = 0 to n - 1 do
    let captured = ref i in
    Weak.set weak i (Some captured);
    Resource.submit r ~cost:(Time.us 10) (fun () -> ran := !ran + !captured)
  done;
  check_int "three waited in the ring" (n - 1) (Resource.depth r);
  Engine.run e;
  check_int "every job ran" (0 + 1 + 2 + 3) !ran;
  Gc.full_major ();
  for i = 0 to n - 1 do
    check_bool
      (Printf.sprintf "continuation %d collected" i)
      true
      (Weak.get weak i = None)
  done;
  (* The resource itself stays live and usable. *)
  Resource.submit r ~cost:(Time.us 10) (fun () -> incr ran);
  Engine.run e;
  check_int "usable afterwards" 7 !ran

let qsuite tests = List.map (QCheck_alcotest.to_alcotest ~long:false) tests

let suites =
  [
    ( "sim.time",
      [
        Alcotest.test_case "units" `Quick test_time_units;
        Alcotest.test_case "arithmetic" `Quick test_time_arith;
        Alcotest.test_case "pretty-printing" `Quick test_time_pp;
      ] );
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independence" `Quick test_rng_split_independent;
        Alcotest.test_case "int bounds" `Quick test_rng_int_bounds;
        Alcotest.test_case "float bounds" `Quick test_rng_float_bounds;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "shuffle is a permutation" `Quick test_rng_shuffle_permutation;
        Alcotest.test_case "bytes length" `Quick test_rng_bytes_len;
        Alcotest.test_case "streams pinned" `Quick test_rng_pinned;
        Alcotest.test_case "int draws allocate nothing" `Quick test_rng_int_allocates_nothing;
      ]
      @ qsuite [ prop_rng_int_uniformish ] );
    ( "sim.heap",
      [
        Alcotest.test_case "pops in order" `Quick test_heap_order;
        Alcotest.test_case "FIFO on ties" `Quick test_heap_fifo_ties;
        Alcotest.test_case "empty behaviour" `Quick test_heap_empty;
        Alcotest.test_case "clear" `Quick test_heap_clear;
        Alcotest.test_case "pop/clear drop value references" `Quick
          test_heap_drops_popped_references;
        Alcotest.test_case "remove drops value references" `Quick
          test_heap_drops_removed_references;
      ]
      @ qsuite
          [
            prop_heap_sorts;
            prop_heap_tie_total_order;
            prop_heap_matches_sorted_model;
            prop_heap_interleaved_removes;
            prop_heap_slot_reuse_across_growth;
            prop_heap_mass_removes;
          ] );
    ( "sim.engine",
      [
        Alcotest.test_case "runs in order" `Quick test_engine_runs_in_order;
        Alcotest.test_case "run until" `Quick test_engine_until;
        Alcotest.test_case "cancel" `Quick test_engine_cancel;
        Alcotest.test_case "cancel keeps order" `Quick test_engine_cancel_keeps_order;
        Alcotest.test_case "cancel frees the action at once" `Quick
          test_engine_cancel_frees_action;
        Alcotest.test_case "re-armed timer" `Quick test_engine_rearm;
        Alcotest.test_case "stop/resume" `Quick test_engine_stop;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
        Alcotest.test_case "FIFO ties" `Quick test_engine_same_time_fifo;
        Alcotest.test_case "event count" `Quick test_engine_events_processed;
        Alcotest.test_case "past events clamped" `Quick test_engine_past_event_clamped;
        Alcotest.test_case "every: grid and stop from a tick" `Quick test_engine_every;
      ] );
    ( "sim.choice",
      [
        Alcotest.test_case "pass-through when capture off" `Quick
          test_choice_passthrough_when_off;
        Alcotest.test_case "capture parks, fire runs at the clock" `Quick
          test_choice_capture_parks_and_fires;
        Alcotest.test_case "release restores timestamp order" `Quick
          test_choice_release_restores_timestamp_order;
        Alcotest.test_case "release clamps past keys" `Quick
          test_choice_release_clamps_past_keys;
        Alcotest.test_case "cancel while parked" `Quick
          test_choice_cancel_while_parked;
      ] );
    ( "sim.resource",
      [
        Alcotest.test_case "FIFO service" `Quick test_resource_fifo_service;
        Alcotest.test_case "idle gap" `Quick test_resource_idle_gap;
        Alcotest.test_case "charge pushes back" `Quick test_resource_charge_pushes_back;
        Alcotest.test_case "accounting" `Quick test_resource_accounting;
        Alcotest.test_case "FIFO across ring wrap and growth" `Quick
          test_resource_ring_wraps_and_grows;
        Alcotest.test_case "completed continuations are collectable" `Quick
          test_resource_drops_completed_continuations;
      ]
      @ qsuite
          [
            prop_resource_completion_monotonic;
            prop_resource_backlog_matches_fold;
          ] );
  ]
