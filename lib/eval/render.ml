module Dfg = Hlts_dfg.Dfg
module Flows = Hlts_synth.Flows
module State = Hlts_synth.State
module Merge = Hlts_synth.Merge
module Schedule = Hlts_sched.Schedule
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic
module Binding = Hlts_alloc.Binding
module Lifetime = Hlts_alloc.Lifetime

let hr ppf = Format.fprintf ppf "%s@," (String.make 78 '-')

let table ppf ~title ?(with_area = false) ?(with_time = true) rows =
  Format.fprintf ppf "@[<v>";
  hr ppf;
  Format.fprintf ppf "%s@," title;
  hr ppf;
  let groups =
    Hlts_util.Listx.group_by (fun r -> r.Eval.approach) rows
  in
  List.iter
    (fun (approach, rows) ->
      Format.fprintf ppf "%s@," (Flows.approach_name approach);
      (match rows with
      | [] -> ()
      | r :: _ ->
        Format.fprintf ppf "  modules:   %s@,"
          (String.concat " | " r.Eval.module_allocation);
        Format.fprintf ppf "  registers: %s@,"
          (String.concat " | " r.Eval.register_allocation);
        Format.fprintf ppf
          "  steps: %d   #regs: %d   #units: %d   #mux slices: %d@,"
          r.Eval.schedule_length r.Eval.n_registers r.Eval.n_fus r.Eval.n_mux);
      Format.fprintf ppf "  %4s  %10s  %9s%s  %6s%s@," "#bit"
        "fault cov" "tg effort"
        (if with_time then Printf.sprintf "  %7s" "tg sec" else "")
        "cycles"
        (if with_area then "     area" else "");
      List.iter
        (fun r ->
          Format.fprintf ppf "  %4d  %9.2f%%  %9d%s  %6d%s@," r.Eval.bits
            r.Eval.fault_coverage_pct r.Eval.tg_effort
            (if with_time then Printf.sprintf "  %7.2f" r.Eval.tg_seconds
             else "")
            r.Eval.test_cycles
            (if with_area then Printf.sprintf "  %5.3fmm2" r.Eval.area_mm2
             else ""))
        rows;
      hr ppf)
    groups;
  Format.fprintf ppf "@]@."

let schedule_figure ppf dfg (o : Flows.outcome) =
  let state = o.Flows.state in
  let sched = state.State.schedule in
  Format.fprintf ppf "@[<v>schedule after %s synthesis of %s (E = %d steps)@,"
    (Flows.approach_name o.Flows.approach)
    dfg.Dfg.name (Schedule.length sched);
  for step = 1 to Schedule.length sched do
    let ops = Schedule.ops_at sched step in
    let describe id =
      let op = Dfg.op_by_id dfg id in
      let arg = function
        | Dfg.Input name -> name
        | Dfg.Const c -> string_of_int c
        | Dfg.Op i -> (Dfg.op_by_id dfg i).Dfg.result
      in
      let a, b = op.Dfg.args in
      Printf.sprintf "N%d:%s=%s%s%s" id op.Dfg.result (arg a)
        (Hlts_dfg.Op.symbol op.Dfg.kind)
        (arg b)
    in
    Format.fprintf ppf "  step %2d | %s@," step
      (String.concat "   " (List.map describe ops))
  done;
  Format.fprintf ppf "  unit sharing:@,";
  List.iter
    (fun fu ->
      Format.fprintf ppf "    (%s): %s@,"
        (Hlts_dfg.Op.class_name fu.Binding.fu_class)
        (String.concat ", " (List.map (Printf.sprintf "N%d") fu.Binding.fu_ops)))
    state.State.binding.Binding.fus;
  Format.fprintf ppf "  register sharing:@,";
  List.iter
    (fun reg ->
      Format.fprintf ppf "    R%d: %s@," reg.Binding.reg_id
        (String.concat ", "
           (List.map (Dfg.value_name dfg) reg.Binding.reg_values)))
    state.State.binding.Binding.registers;
  Format.fprintf ppf "@]@."

(* Figure 1: two additions initially in the same control step are merged
   onto one unit; SR2 picks the execution order that keeps lifetimes
   compact (supporting SR1's sequential-depth reduction). *)
let figure1 ppf =
  let dfg =
    Dfg.validate_exn
      {
        Dfg.name = "figure1";
        inputs = [ "w"; "v"; "s" ];
        ops =
          [
            { Dfg.id = 1; kind = Hlts_dfg.Op.Add; args = (Dfg.Input "w", Dfg.Input "v");
              result = "y" };
            { Dfg.id = 2; kind = Hlts_dfg.Op.Add; args = (Dfg.Input "s", Dfg.Input "v");
              result = "u" };
            { Dfg.id = 3; kind = Hlts_dfg.Op.Sub; args = (Dfg.Op 1, Dfg.Input "s");
              result = "z" };
          ];
        outputs = [ "z"; "u" ];
      }
  in
  let state = State.init dfg in
  Format.fprintf ppf
    "@[<v>Figure 1: controllability/observability enhancement strategy@,\
     design: N1 (y = w+v) and N2 (u = s+v), both in control step 1;@,\
     N3 (z = y-s) consumes y, and u leaves through an output port.@,\
     Merging N1 and N2 onto one adder imposes an execution order.@,\
     Running N1 first keeps y's producer on the critical path and@,\
     shortens the lifetimes SR1 cares about; SR2 decides:@,@,";
  let occupancy_for first second =
    let cons = Constraints.add_arc state.State.cons first second in
    match Basic.asap cons with
    | Error _ -> None
    | Ok sched ->
      Some
        (List.fold_left
           (fun acc (_, iv) -> acc + (iv.Lifetime.death - iv.Lifetime.birth))
           0
           (Lifetime.of_schedule dfg sched))
  in
  let show label = function
    | None -> Format.fprintf ppf "  order %s: infeasible@," label
    | Some occ ->
      Format.fprintf ppf "  order %s: total register occupancy = %d steps@,"
        label occ
  in
  show "N1 before N2" (occupancy_for 1 2);
  show "N2 before N1" (occupancy_for 2 1);
  let fu1 = (Binding.fu_of_op state.State.binding 1).Binding.fu_id in
  let fu2 = (Binding.fu_of_op state.State.binding 2).Binding.fu_id in
  (match Merge.modules state ~bits:8 fu1 fu2 with
  | None -> Format.fprintf ppf "  merger infeasible (unexpected)@,"
  | Some o ->
    let s' = o.Merge.state in
    Format.fprintf ppf "@,SR2 commits: %s@," o.Merge.description;
    Format.fprintf ppf "  N1 now in step %d, N2 in step %d (dE = %d)@,"
      (Schedule.step s'.State.schedule 1)
      (Schedule.step s'.State.schedule 2)
      o.Merge.delta_e;
    let seq st =
      Hlts_testability.Testability.seq_depth_total (State.analysis st)
    in
    Format.fprintf ppf
      "  sequential-depth metric: %.1f before merger, %.1f after@," (seq state)
      (seq s'));
  Format.fprintf ppf "@]@."
