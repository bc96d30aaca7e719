open Dessim

let t_pp = Time.ms 10
let k_lat = 3.0
let ping_period = Time.ms 100

(* Estimates use exponential moving averages in seconds. *)
let alpha = 0.25

type t = {
  mutable rtt : float;
  mutable exec : float;
  mutable last_pp : Time.t;
  mutable have_pp : bool;
}

let create () = { rtt = 0.0; exec = 0.0; last_pp = Time.zero; have_pp = false }

let ema current sample =
  if current = 0.0 then sample else ((1.0 -. alpha) *. current) +. (alpha *. sample)

let note_rtt t rtt = t.rtt <- ema t.rtt (Time.to_sec_f rtt)
let note_batch_exec t d = t.exec <- ema t.exec (Time.to_sec_f d)

let note_pre_prepare t ~now =
  t.last_pp <- now;
  t.have_pp <- true

let allowed_gap t =
  Time.add t_pp (Time.of_sec_f (k_lat *. (t.rtt +. t.exec)))

let suspicious t ~now =
  t.have_pp && Time.sub now t.last_pp > allowed_gap t
