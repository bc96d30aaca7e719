module Event = Bftmetrics.Event

type problem = { invariant : string; detail : string }

type t = {
  (* node -> highest cpi it voted an instance change for *)
  votes : (int, int) Hashtbl.t;
  (* node -> highest cpi it completed an instance change for *)
  changes : (int, int) Hashtbl.t;
  mutable detach : unit -> unit;
}

let create () =
  {
    votes = Hashtbl.create 8;
    changes = Hashtbl.create 8;
    detach = ignore;
  }

let on_event t (ev : Event.t) =
  match ev.kind with
  | Event.Instance_change_vote { cpi } ->
    let prev = Option.value ~default:(-1) (Hashtbl.find_opt t.votes ev.node) in
    if cpi > prev then Hashtbl.replace t.votes ev.node cpi
  | Event.Instance_changed { cpi; recovery = _ } ->
    let prev = Option.value ~default:(-1) (Hashtbl.find_opt t.changes ev.node) in
    if cpi > prev then Hashtbl.replace t.changes ev.node cpi
  | _ -> ()

let attach probe =
  let t = create () in
  t.detach <- Bftmetrics.Probe.subscribe probe (on_event t);
  t

let detach t =
  t.detach ();
  t.detach <- ignore

(* Highest cpi the node voted for; [-1] if it never voted. *)
let max_voted t node = Option.value ~default:(-1) (Hashtbl.find_opt t.votes node)

(* Highest cpi the node completed a change for; [-1] if none. *)
let max_changed t node =
  Option.value ~default:(-1) (Hashtbl.find_opt t.changes node)

(* Both rules quantify over cpi values some correct node actually voted
   or changed for; a cpi nobody reached trivially satisfies them. *)
let check t ~quorum ~correct =
  let problems = ref [] in
  let problem invariant fmt =
    Printf.ksprintf
      (fun detail -> problems := { invariant; detail } :: !problems)
      fmt
  in
  (* Rule 1: an instance change completed by one correct node must have
     completed on every correct node (the change is a coordinated,
     deterministic consequence of a vote quorum every correct node
     eventually collects). *)
  List.iter
    (fun n ->
      let c = max_changed t n in
      if c >= 0 then
        List.iter
          (fun m ->
            if max_changed t m < c then
              problem "instance-change-completion"
                "node %d completed instance change cpi=%d but node %d \
                 stopped at cpi=%d"
                n c m (max_changed t m))
          correct)
    correct;
  (* Rule 2: once a quorum of correct nodes voted for cpi >= c, the
     change for c must complete on every correct node — a triggered
     instance change may not stall. *)
  let voted_cpis =
    List.filter_map (fun n -> if max_voted t n >= 0 then Some (max_voted t n) else None)
      correct
    |> List.sort_uniq compare
  in
  List.iter
    (fun c ->
      let votes_for =
        List.length (List.filter (fun n -> max_voted t n >= c) correct)
      in
      if votes_for >= quorum then
        List.iter
          (fun m ->
            if max_changed t m < c then
              problem "instance-change-progress"
                "%d correct nodes voted for cpi>=%d (quorum %d) but node %d \
                 never completed the change (reached cpi=%d)"
                votes_for c quorum m (max_changed t m))
          correct)
    voted_cpis;
  List.rev !problems

let pp_problem ppf p =
  Format.fprintf ppf "[%s] %s" p.invariant p.detail
