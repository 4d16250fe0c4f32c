(* Tests for Hlts_floorplan: module library scaling, placement sanity,
   and the H = cell area + wire cost estimator. *)

module Etpn = Hlts_etpn.Etpn
module Op = Hlts_dfg.Op
module B = Hlts_dfg.Benchmarks
module Binding = Hlts_alloc.Binding
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic
module State = Hlts_synth.State
module Rng = Hlts_util.Rng
open Hlts_floorplan

let asap d = Basic.asap_exn (Constraints.of_dfg d)

let build d =
  let s = asap d in
  Etpn.build_exn d s (Binding.allocate d s)

let test_library_scaling () =
  (* areas grow with bit width; the multiplier grows fastest *)
  List.iter
    (fun cls ->
      Alcotest.(check bool)
        (Op.class_name cls ^ " grows")
        true
        (Module_library.fu_area cls ~bits:16 > Module_library.fu_area cls ~bits:4))
    [ Op.Fu_adder; Op.Fu_subtractor; Op.Fu_alu; Op.Fu_multiplier;
      Op.Fu_comparator; Op.Fu_logic ];
  let growth cls =
    Module_library.fu_area cls ~bits:16 /. Module_library.fu_area cls ~bits:4
  in
  Alcotest.(check bool) "mul superlinear" true
    (growth Op.Fu_multiplier > growth Op.Fu_adder +. 0.5);
  Alcotest.(check bool) "mul dominates alu at 16b" true
    (Module_library.fu_area Op.Fu_multiplier ~bits:16
    > 3.0 *. Module_library.fu_area Op.Fu_alu ~bits:16)

let test_plan_everywhere () =
  List.iter
    (fun (name, d) ->
      let etpn = build d in
      List.iter
        (fun bits ->
          let r = Floorplan.plan (Etpn.datapath etpn) ~bits in
          if not (r.Floorplan.total > 0.0) then Alcotest.failf "%s: zero area" name;
          Alcotest.(check (float 1e-9))
            (name ^ " total = cells + wires")
            (r.Floorplan.cell_area +. r.Floorplan.wire_cost)
            r.Floorplan.total;
          Alcotest.(check int)
            (name ^ " all placed")
            (List.length etpn.Etpn.nodes)
            (List.length r.Floorplan.placement))
        [ 4; 8; 16 ])
    B.all

let test_no_slot_collisions () =
  let etpn = build B.ewf in
  let r = Floorplan.plan (Etpn.datapath etpn) ~bits:8 in
  let slots = List.map snd r.Floorplan.placement in
  Alcotest.(check int) "distinct slots" (List.length slots)
    (List.length (List.sort_uniq compare slots))

let test_area_grows_with_bits () =
  let etpn = build B.dct in
  let a4 = Floorplan.area (Etpn.datapath etpn) ~bits:4 in
  let a8 = Floorplan.area (Etpn.datapath etpn) ~bits:8 in
  let a16 = Floorplan.area (Etpn.datapath etpn) ~bits:16 in
  Alcotest.(check bool) "4 < 8 < 16" true (a4 < a8 && a8 < a16)

let test_paper_scale () =
  (* DESIGN.md substitution 4: a 16-bit Dct data path should land in the
     paper's few-mm2 ballpark (the paper reports 2.5-3.3 mm2). *)
  let etpn = build B.dct in
  let a = Floorplan.area (Etpn.datapath etpn) ~bits:16 in
  Alcotest.(check bool) (Printf.sprintf "plausible scale (%.3f mm2)" a) true
    (a > 0.5 && a < 10.0)

let test_sharing_reduces_cells () =
  (* an allocated data path has fewer/cheaper cells than the default
     one-node-per-op data path *)
  let d = B.dct in
  let s = asap d in
  let dflt = Etpn.build_exn d s (Binding.default d) in
  let shared = Etpn.build_exn d s (Binding.allocate d s) in
  let a_dflt = (Floorplan.plan (Etpn.datapath dflt) ~bits:8).Floorplan.cell_area in
  let a_shared = (Floorplan.plan (Etpn.datapath shared) ~bits:8).Floorplan.cell_area in
  Alcotest.(check bool) "sharing shrinks cells" true (a_shared < a_dflt)

let test_deterministic () =
  let etpn = build B.ex in
  let dp = Etpn.datapath etpn in
  let r1 = Floorplan.plan dp ~bits:8 and r2 = Floorplan.plan dp ~bits:8 in
  Alcotest.(check bool) "same result" true (r1 = r2)

let prop_wire_cost_nonnegative =
  QCheck.Test.make ~name:"wire cost >= 0" ~count:20
    QCheck.(pair (int_bound (List.length B.all - 1)) (int_range 2 32))
    (fun (i, bits) ->
      let _, d = List.nth B.all i in
      let r = Floorplan.plan (Etpn.datapath (build d)) ~bits in
      r.Floorplan.wire_cost >= 0.0)

(* --- the planner against its O(n^2) reference ------------------------ *)

(* Bit-for-bit: every float compared through its hex rendering. *)
let plan_matches_oracle etpn ~bits =
  let render r =
    ( Printf.sprintf "%h %h %h" r.Floorplan.cell_area r.Floorplan.wire_cost
        r.Floorplan.total,
      List.map
        (fun (id, (x, y)) -> Printf.sprintf "%d:%h,%h" id x y)
        r.Floorplan.placement )
  in
  render (Floorplan.plan (Etpn.datapath etpn) ~bits)
  = render (Oracle.floorplan_plan (Oracle.of_etpn etpn) ~bits)

(* The last state of a random merge trajectory ({!Random_dfg.trajectory}). *)
let random_trajectory rng d steps =
  List.hd (List.rev (Random_dfg.trajectory rng d steps))

let prop_plan_matches_oracle =
  QCheck.Test.make ~name:"plan = O(n^2) reference planner" ~count:60
    QCheck.(triple (int_bound 1_000_000) (int_range 2 40) (int_bound 12))
    (fun (seed, ops, steps) ->
      let rng = Rng.create seed in
      let d = B.random ~seed ~ops in
      let etpn = State.etpn (random_trajectory rng d steps) in
      List.for_all (fun bits -> plan_matches_oracle etpn ~bits) [ 4; 8; 16 ])

let test_plan_matches_oracle_benchmarks () =
  List.iter
    (fun (name, d) ->
      let rng = Rng.create 7 in
      List.iter
        (fun etpn ->
          List.iter
            (fun bits ->
              Alcotest.(check bool)
                (Printf.sprintf "%s@%d = reference" name bits)
                true
                (plan_matches_oracle etpn ~bits))
            [ 4; 8; 16 ])
        [ build d; State.etpn (State.init d); State.etpn (random_trajectory rng d 8) ])
    B.all

let () =
  Alcotest.run "hlts_floorplan"
    [
      ( "library",
        [ Alcotest.test_case "scaling" `Quick test_library_scaling ] );
      ( "plan",
        [
          Alcotest.test_case "all benchmarks" `Quick test_plan_everywhere;
          Alcotest.test_case "no collisions" `Quick test_no_slot_collisions;
          Alcotest.test_case "grows with bits" `Quick test_area_grows_with_bits;
          Alcotest.test_case "paper scale" `Quick test_paper_scale;
          Alcotest.test_case "sharing reduces cells" `Quick test_sharing_reduces_cells;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest prop_wire_cost_nonnegative;
          Alcotest.test_case "benchmarks = reference" `Quick
            test_plan_matches_oracle_benchmarks;
          QCheck_alcotest.to_alcotest prop_plan_matches_oracle;
        ] );
    ]
