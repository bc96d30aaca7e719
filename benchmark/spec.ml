(* The parts of BENCHMARK.json that compare.exe and the tests read. *)

module J = Bftdoctor.Jmini

type better = Higher | Lower

type metric = {
  name : string;
  unit : string;
  better : better;
  bound : float;  (** share of the parent median; [infinity] when unbounded *)
}

type t = {
  workloads : (string * string) list;  (** name, why *)
  end_to_end : metric list;
  per_layer : metric list;
}

let fail fmt = Printf.ksprintf failwith fmt

let field key conv v =
  match Option.bind (J.mem key v) conv with
  | Some x -> x
  | None -> fail "BENCHMARK.json: missing or malformed %S" key

let metric v =
  {
    name = field "name" J.str v;
    unit = field "unit" J.str v;
    better =
      (match field "better" J.str v with
      | "higher" -> Higher
      | "lower" -> Lower
      | s -> fail "BENCHMARK.json: better must be higher or lower, not %S" s);
    bound = Option.value ~default:infinity (J.get_num "bound" v);
  }

let of_string text =
  let v = J.parse text in
  {
    workloads =
      List.map (fun w -> (field "name" J.str w, field "why" J.str w)) (field "workloads" J.arr v);
    end_to_end = List.map metric (field "end_to_end" J.arr v);
    per_layer = List.map metric (field "per_layer" J.arr v);
  }

let load path = of_string (In_channel.with_open_bin path In_channel.input_all)
