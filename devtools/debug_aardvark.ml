open Dessim

(* Every sweep point runs under the online safety auditor; a violation
   raises and kills the sweep, so completing it is a checked run. *)
(* Structured timeline of the interesting control-plane events: this
   sweep should be quiet (no instance changes, no closed NICs). *)
let print_event ev =
  match ev.Bftmetrics.Event.kind with
  | Bftmetrics.Event.Instance_changed _ | Bftmetrics.Event.Instance_change_vote _
  | Bftmetrics.Event.Nic_closed _ | Bftmetrics.Event.Blacklisted _
  | Bftmetrics.Event.View_entered _ ->
    Printf.printf "    event: %s\n%!" (Bftmetrics.Event.to_string ev)
  | _ -> ()

let run ~f ~rate ~payload =
  let probe = Bftmetrics.Probe.create () in
  let (_ : unit -> unit) = Bftmetrics.Probe.subscribe probe print_event in
  let auditor = Bftaudit.Auditor.attach ~probe ~n:((3 * f) + 1) ~f () in
  let params = Rbft.Params.default ~f in
  let nc = 30 in
  let cluster = Rbft.Cluster.create ~probe ~clients:nc ~payload_size:payload params in
  Array.iter (fun c -> Rbft.Client.set_rate c (rate /. float_of_int nc)) (Rbft.Cluster.clients cluster);
  Rbft.Cluster.run_for cluster (Time.ms 1200);
  let rate = Rbft.Cluster.throughput_between cluster (Time.ms 400) (Time.ms 1200) in
  let checked = Bftaudit.Auditor.events_checked auditor in
  Bftaudit.Auditor.detach auditor;
  (rate, checked)
let () =
  List.iter (fun (f, payload, rates) ->
      List.iter (fun rate ->
          let achieved, checked = run ~f ~rate ~payload in
          Printf.printf "f=%d size=%d offered=%.1fk achieved=%.1fk audited=%d\n%!"
            f payload (rate /. 1e3) (achieved /. 1e3) checked) rates)
    [ (1, 8, [32e3; 35e3; 38e3]); (1, 4096, [5e3; 6e3; 7e3]); (2, 8, [20e3; 23e3]); (2, 4096, [3e3; 3.6e3]) ]
