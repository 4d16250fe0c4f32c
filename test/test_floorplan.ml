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

let build_default d = Etpn.build_exn d (asap d) (Binding.default d)

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

(* [taps] observation points on registers picked by [rng]: each adds a
   port and an arc after the view's last ones. *)
let with_taps rng etpn taps =
  let regs = Array.of_list etpn.Etpn.binding.Binding.registers in
  let rec go etpn k =
    if k = 0 then etpn
    else
      let reg = Rng.pick rng regs in
      go (Etpn.add_observation_point etpn ~reg_id:reg.Binding.reg_id) (k - 1)
  in
  go etpn taps

let prop_plan_matches_oracle =
  QCheck.Test.make ~name:"plan = O(n^2) reference planner" ~count:60
    QCheck.(quad (int_bound 1_000_000) (int_range 2 60) (int_bound 12) (int_bound 3))
    (fun (seed, ops, steps, taps) ->
      let rng = Rng.create seed in
      let d = B.random ~seed ~ops in
      let etpn = with_taps rng (State.etpn (random_trajectory rng d steps)) taps in
      List.for_all (fun bits -> plan_matches_oracle etpn ~bits) [ 4; 8; 16 ])

(* [v_k := v_(k-1) + k]: a path of units and registers, each unit with a
   constant of its own, so no block is a hub. *)
let chain ops =
  let operand k = if k = 1 then Hlts_dfg.Dfg.Input "a" else Hlts_dfg.Dfg.Op (k - 1) in
  Hlts_dfg.Dfg.validate_exn
    {
      Hlts_dfg.Dfg.name = "chain";
      inputs = [ "a" ];
      ops =
        List.init ops (fun i ->
            let k = i + 1 in
            {
              Hlts_dfg.Dfg.id = k;
              kind = Op.Add;
              args = (operand k, Hlts_dfg.Dfg.Const k);
              result = Printf.sprintf "v%d" k;
            });
      outputs = [ Printf.sprintf "v%d" ops ];
    }

let test_chain_spreads () =
  (* The units go first and have no placed neighbour when they do, so
     each takes the least free cell: they form a line, and registers and
     constants line up beside it. The plan is a band [ops] cells long,
     not a compact blob, and the cell table must follow it exactly. *)
  let ops = 120 in
  let etpn = build_default (chain ops) in
  List.iter
    (fun bits ->
      Alcotest.(check bool)
        (Printf.sprintf "chain@%d = reference" bits)
        true (plan_matches_oracle etpn ~bits))
    [ 4; 8 ];
  let r = Floorplan.plan (Etpn.datapath etpn) ~bits:8 in
  let xs = List.map (fun (_, (x, _)) -> x) r.Floorplan.placement
  and ys = List.map (fun (_, (_, y)) -> y) r.Floorplan.placement in
  let extent l = List.fold_left max neg_infinity l -. List.fold_left min infinity l in
  let pitch =
    sqrt (r.Floorplan.cell_area /. float_of_int (List.length r.Floorplan.placement))
  in
  Alcotest.(check bool) "extent spans the chain" true
    (extent xs +. extent ys >= float_of_int (ops - 1) *. pitch)

let test_large_view () =
  (* the initial view of a 2000-operation graph: 4.5k blocks *)
  let d = B.random ~seed:1 ~ops:2000 in
  let h = Floorplan.area (State.datapath (State.init d)) ~bits:8 in
  Alcotest.(check bool) "finite positive" true (Float.is_finite h && h > 0.0)

let test_domains_agree () =
  (* Each domain plans on its own scratch: two domains planning the
     same views at once, in opposite orders, read the sequential H. *)
  let rng = Rng.create 11 in
  let views =
    List.concat_map
      (fun (_, d) -> List.map State.datapath (Random_dfg.trajectory rng d 6))
      B.all
  in
  let areas views = List.map (fun dp -> Printf.sprintf "%h" (Floorplan.area dp ~bits:8)) views in
  let expected = areas views in
  let rev = Domain.spawn (fun () -> List.rev (areas (List.rev views))) in
  let fwd = Domain.spawn (fun () -> areas views) in
  Alcotest.(check (list string)) "forward" expected (Domain.join fwd);
  Alcotest.(check (list string)) "reverse" expected (Domain.join rev)

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
          Alcotest.test_case "chain = reference" `Quick test_chain_spreads;
          Alcotest.test_case "2000 operations" `Quick test_large_view;
          Alcotest.test_case "two domains = sequential" `Quick test_domains_agree;
        ] );
    ]
