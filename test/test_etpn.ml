(* Tests for Hlts_etpn: construction, arcs/guards, stats (mux counting,
   self-loops), interconnect, and the control-part execution time. *)

open Hlts_etpn
module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Binding = Hlts_alloc.Binding
module Schedule = Hlts_sched.Schedule
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic

let asap d = Basic.asap_exn (Constraints.of_dfg d)

let build_alloc d =
  let s = asap d in
  Etpn.build_exn d s (Binding.allocate d s)

let build_default d =
  let s = asap d in
  Etpn.build_exn d s (Binding.default d)

let test_builds_everywhere () =
  List.iter
    (fun (name, d) ->
      match Etpn.build d (asap d) (Binding.allocate d (asap d)) with
      | Ok (_ : Etpn.t) -> ()
      | Error msg -> Alcotest.failf "%s: %s" name msg)
    B.all

let test_rejects_bad_schedule () =
  let d = B.toy in
  let bad = Schedule.of_assoc [ (1, 1); (2, 1); (3, 2) ] in
  match Etpn.build d bad (Binding.default d) with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.fail "bad schedule accepted"

let test_execution_time_is_schedule_length () =
  List.iter
    (fun (name, d) ->
      let s = asap d in
      let etpn = Etpn.build_exn d s (Binding.allocate d s) in
      Alcotest.(check int) name (Schedule.length s)
        (Petri.execution_time
           (Petri.chain (Schedule.length etpn.Etpn.schedule))))
    B.all

let test_default_has_no_muxes () =
  (* one node per op and per value: every destination has one source *)
  let etpn = build_default B.ex in
  let st = Etpn.stats etpn in
  Alcotest.(check int) "mux units" 0 st.Etpn.n_mux_units;
  Alcotest.(check int) "mux slices" 0 st.Etpn.n_mux_slices

let test_shared_has_muxes () =
  let etpn = build_alloc B.ex in
  let st = Etpn.stats etpn in
  Alcotest.(check bool) "muxes appear" true (st.Etpn.n_mux_units > 0);
  Alcotest.(check bool) "slices >= units" true
    (st.Etpn.n_mux_slices >= st.Etpn.n_mux_units)

let test_stats_counts () =
  let d = B.diffeq in
  let s = asap d in
  let binding = Binding.allocate d s in
  let etpn = Etpn.build_exn d s binding in
  let st = Etpn.stats etpn in
  Alcotest.(check int) "registers" (List.length binding.Binding.registers)
    st.Etpn.n_registers;
  Alcotest.(check int) "units" (List.length binding.Binding.fus) st.Etpn.n_fus

let test_fu_ports_fed () =
  (* every functional unit has at least one source on each port, and every
     op's result reaches either a register or a condition output *)
  let etpn = build_alloc B.diffeq in
  List.iter
    (fun (id, n) ->
      match n with
      | Etpn.Fu _ ->
        let left =
          List.filter (fun a -> a.Etpn.a_port = Some Etpn.P_left)
            (Etpn.in_arcs etpn id)
        in
        let right =
          List.filter (fun a -> a.Etpn.a_port = Some Etpn.P_right)
            (Etpn.in_arcs etpn id)
        in
        Alcotest.(check bool) "left fed" true (left <> []);
        Alcotest.(check bool) "right fed" true (right <> []);
        Alcotest.(check bool) "drives something" true
          (Etpn.out_arcs etpn id <> [])
      | _ -> ())
    etpn.Etpn.nodes

let test_guards_within_schedule () =
  let d = B.dct in
  let s = asap d in
  let etpn = Etpn.build_exn d s (Binding.allocate d s) in
  let len = Schedule.length s in
  List.iter
    (fun a ->
      List.iter
        (fun g ->
          if g < 0 || g > len + 1 then
            Alcotest.failf "guard %d out of range [0, %d]" g (len + 1))
        a.Etpn.a_guards)
    etpn.Etpn.arcs

let test_guard_matches_op_step () =
  (* the arc from a unit to the register of its result is guarded by the
     operation's step *)
  let d = B.toy in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let fu_node = Etpn.node_id_of_fu etpn (Binding.fu_of_op binding 2).Binding.fu_id in
  let outs = Etpn.out_arcs etpn fu_node in
  Alcotest.(check int) "one result arc" 1 (List.length outs);
  Alcotest.(check (list int)) "guarded by op step" [ Schedule.step s 2 ]
    (List.hd outs).Etpn.a_guards

let test_condition_output () =
  (* diffeq's comparison produces a Cond_out node fed by a comparator *)
  let etpn = build_alloc B.diffeq in
  let conds =
    List.filter
      (fun (_, n) -> match n with Etpn.Cond_out _ -> true | _ -> false)
      etpn.Etpn.nodes
  in
  Alcotest.(check int) "one condition" 1 (List.length conds);
  let id, _ = List.hd conds in
  Alcotest.(check bool) "fed" true (Etpn.in_arcs etpn id <> [])

let test_self_loop_detection () =
  (* u1 := u - ... in diffeq: if u and u1 share a register and the same
     ALU reads u and writes u1, that is a self-loop. Build such a binding
     by hand on toy instead: use default binding (no sharing): no loops. *)
  let etpn = build_default B.toy in
  Alcotest.(check int) "no self loops" 0 (Etpn.stats etpn).Etpn.n_self_loops

let test_interconnect_symmetric_unique () =
  let etpn = build_alloc B.ex in
  let pairs = Etpn.interconnect etpn in
  List.iter
    (fun (a, b) ->
      Alcotest.(check bool) "ordered" true (a < b);
      Alcotest.(check int) "unique" 1
        (List.length (List.filter (( = ) (a, b)) pairs)))
    pairs

let test_to_dot_mentions_nodes () =
  let etpn = build_alloc B.toy in
  let dot = Etpn.to_dot etpn in
  Alcotest.(check bool) "digraph" true
    (String.length dot > 20 && String.sub dot 0 7 = "digraph");
  (* every node id appears *)
  List.iter
    (fun (id, _) ->
      let needle = Printf.sprintf "n%d " id in
      let found =
        let rec search i =
          if i + String.length needle > String.length dot then false
          else if String.sub dot i (String.length needle) = needle then true
          else search (i + 1)
        in
        search 0
      in
      Alcotest.(check bool) "node in dot" true found)
    etpn.Etpn.nodes

let test_control_unrolled () =
  (* Diffeq's loop body unrolled: worst case = iterations * E, found by
     exploring the exit/repeat choices of the reachability tree *)
  let d = B.diffeq in
  let s = asap d in
  let etpn = Etpn.build_exn d s (Binding.allocate d s) in
  let steps = Schedule.length etpn.Etpn.schedule in
  let e1 = Petri.execution_time (Petri.chain steps) in
  List.iter
    (fun its ->
      let net = Petri.control_unrolled steps ~iterations:its in
      Alcotest.(check int)
        (Printf.sprintf "%d iterations" its)
        (its * e1)
        (Petri.execution_time net))
    [ 1; 2; 3 ];
  (* the tree explores every exit branch: strictly more nodes than the
     single chain *)
  let path3 = Petri.critical_path (Petri.control_unrolled steps ~iterations:3) in
  Alcotest.(check bool) "branching explored" true
    (path3.Petri.tree_nodes > 3 * e1)

let test_observation_point () =
  let d = B.toy in
  let s = asap d in
  let binding = Binding.allocate d s in
  let etpn = Etpn.build_exn d s binding in
  let reg_id = (List.hd binding.Binding.registers).Binding.reg_id in
  let tapped = Etpn.add_observation_point etpn ~reg_id in
  Alcotest.(check int) "one more node"
    (List.length etpn.Etpn.nodes + 1)
    (List.length tapped.Etpn.nodes);
  Alcotest.(check int) "one more arc"
    (List.length etpn.Etpn.arcs + 1)
    (List.length tapped.Etpn.arcs);
  (* the tap is observable in the expanded circuit *)
  let c = Hlts_netlist.Expand.circuit tapped ~bits:4 in
  Alcotest.(check bool) "tp port exists" true
    (List.mem_assoc
       (Printf.sprintf "out_tp_r%d" reg_id)
       c.Hlts_netlist.Netlist.pos)

let prop_arc_endpoints_exist =
  QCheck.Test.make ~name:"arc endpoints are nodes" ~count:20
    QCheck.(int_bound (List.length B.all - 1))
    (fun i ->
      let _, d = List.nth B.all i in
      let s = asap d in
      let etpn = Etpn.build_exn d s (Binding.allocate d s) in
      let ids = List.map fst etpn.Etpn.nodes in
      List.for_all
        (fun a -> List.mem a.Etpn.a_src ids && List.mem a.Etpn.a_dst ids)
        etpn.Etpn.arcs)

(* [f] and its list-scan definition agree, [Not_found] included *)
let same f g x =
  let result h = match h x with y -> Some y | exception Not_found -> None in
  result f = result g

let accessors_coherent etpn =
  let n = List.length etpn.Etpn.nodes in
  let ids = List.init (n + 2) (fun i -> i - 1) in
  let regs = List.map (fun r -> r.Binding.reg_id) etpn.Etpn.binding.Binding.registers in
  let fus = List.map (fun f -> f.Binding.fu_id) etpn.Etpn.binding.Binding.fus in
  let d = Oracle.of_etpn etpn in
  List.for_all (same (Etpn.node etpn) (Oracle.etpn_node d)) ids
  && List.for_all (same (Etpn.in_arcs etpn) (Oracle.etpn_in_arcs d)) ids
  && List.for_all (same (Etpn.out_arcs etpn) (Oracle.etpn_out_arcs d)) ids
  && List.for_all
       (same (Etpn.node_id_of_reg etpn) (Oracle.etpn_node_id_of_reg d))
       (-1 :: List.length regs :: regs)
  && List.for_all
       (same (Etpn.node_id_of_fu etpn) (Oracle.etpn_node_id_of_fu d))
       (-1 :: List.length fus :: fus)

let prop_accessors_coherent =
  QCheck.Test.make ~name:"indexed accessors = list scans" ~count:150
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let d = Random_dfg.make seed in
      let s = asap d in
      List.for_all
        (fun binding ->
          let etpn = Etpn.build_exn d s binding in
          (* test points one at a time, then all stacked *)
          let tapped =
            List.map
              (fun r -> Etpn.add_observation_point etpn ~reg_id:r.Binding.reg_id)
              binding.Binding.registers
          in
          let stacked =
            List.fold_left
              (fun e r -> Etpn.add_observation_point e ~reg_id:r.Binding.reg_id)
              etpn binding.Binding.registers
          in
          List.for_all accessors_coherent (etpn :: stacked :: tapped))
        [ Binding.default d; Binding.allocate d s ])

let () =
  Alcotest.run "hlts_etpn"
    [
      ( "build",
        [
          Alcotest.test_case "all benchmarks" `Quick test_builds_everywhere;
          Alcotest.test_case "rejects bad schedule" `Quick test_rejects_bad_schedule;
          Alcotest.test_case "execution time" `Quick
            test_execution_time_is_schedule_length;
        ] );
      ( "structure",
        [
          Alcotest.test_case "default: no muxes" `Quick test_default_has_no_muxes;
          Alcotest.test_case "shared: muxes" `Quick test_shared_has_muxes;
          Alcotest.test_case "stats counts" `Quick test_stats_counts;
          Alcotest.test_case "fu ports fed" `Quick test_fu_ports_fed;
          Alcotest.test_case "guards in range" `Quick test_guards_within_schedule;
          Alcotest.test_case "guard = op step" `Quick test_guard_matches_op_step;
          Alcotest.test_case "condition output" `Quick test_condition_output;
          Alcotest.test_case "self loops" `Quick test_self_loop_detection;
          Alcotest.test_case "interconnect" `Quick test_interconnect_symmetric_unique;
          Alcotest.test_case "dot output" `Quick test_to_dot_mentions_nodes;
          Alcotest.test_case "unrolled loop control" `Quick test_control_unrolled;
          Alcotest.test_case "observation point" `Quick test_observation_point;
          QCheck_alcotest.to_alcotest prop_arc_endpoints_exist;
          QCheck_alcotest.to_alcotest prop_accessors_coherent;
        ] );
    ]
