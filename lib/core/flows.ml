module Dfg = Hlts_dfg.Dfg
module Constraints = Hlts_sched.Constraints
module Binding = Hlts_alloc.Binding
module Etpn = Hlts_etpn.Etpn

type approach =
  | Camad
  | Approach1
  | Approach2
  | Ours

let approach_name = function
  | Camad -> "CAMAD"
  | Approach1 -> "Approach 1"
  | Approach2 -> "Approach 2"
  | Ours -> "Ours"

let approach_of_string s =
  match String.lowercase_ascii s with
  | "camad" -> Some Camad
  | "approach1" | "approach-1" | "approach_1" | "approach 1" | "a1" | "fds" ->
    Some Approach1
  | "approach2" | "approach-2" | "approach_2" | "approach 2" | "a2" | "lee" ->
    Some Approach2
  | "ours" | "yang-peng" | "integrated" -> Some Ours
  | _ -> None

type outcome = {
  approach : approach;
  state : State.t;
  etpn : Etpn.t;
  records : Synth.record list;
}

(* The separate-step flows schedule under the same latency budget the
   integrated flow works within, so all four approaches trade time for
   area on equal terms. *)
let budget params dfg =
  let cp = Dfg.longest_chain dfg in
  if params.Synth.latency_factor = infinity then cp
  else int_of_float (ceil (params.Synth.latency_factor *. float_of_int cp))

let separate_step approach scheduler dfg =
  let cons = Constraints.of_dfg dfg in
  match scheduler cons with
  | Error msg ->
    invalid_arg (Printf.sprintf "Flows.%s: %s" (approach_name approach) msg)
  | Ok schedule ->
    let binding = Binding.allocate ~prefer_io:true dfg schedule in
    let state = State.make ~dfg ~cons ~schedule ~binding () in
    { approach; state; etpn = State.etpn state; records = [] }

let synthesize ?(params = Synth.default_params) ?jobs approach dfg =
  match approach with
  | Approach1 ->
    let latency = budget params dfg in
    separate_step Approach1
      (fun cons -> Hlts_sched.Fds.schedule cons ~latency ())
      dfg
  | Approach2 ->
    let latency = budget params dfg in
    separate_step Approach2
      (fun cons -> Hlts_sched.Mobility_path.schedule cons ~latency ())
      dfg
  | Camad ->
    let params = { params with Synth.strategy = Candidates.Connectivity } in
    let r = Synth.run ~params ?jobs dfg in
    {
      approach = Camad;
      state = r.Synth.final;
      etpn = State.etpn r.Synth.final;
      records = r.Synth.records;
    }
  | Ours ->
    let params = { params with Synth.strategy = Candidates.Balance } in
    let r = Synth.run ~params ?jobs dfg in
    {
      approach = Ours;
      state = r.Synth.final;
      etpn = State.etpn r.Synth.final;
      records = r.Synth.records;
    }
