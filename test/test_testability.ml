(* Tests for Hlts_testability: propagation laws of CC/SC/CO/SO, node
   summaries, sequential depth, and the balance score. *)

open Hlts_testability
module Etpn = Hlts_etpn.Etpn
module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Binding = Hlts_alloc.Binding
module Constraints = Hlts_sched.Constraints
module Basic = Hlts_sched.Basic

let asap d = Basic.asap_exn (Constraints.of_dfg d)

let analyzed d =
  let s = asap d in
  let etpn = Etpn.build_exn d s (Binding.allocate d s) in
  (etpn, Testability.analyze (Etpn.datapath etpn))

let test_ranges_everywhere () =
  List.iter
    (fun (name, d) ->
      let etpn, t = analyzed d in
      List.iter
        (fun (id, _) ->
          let m = Testability.node_measures t id in
          let ok01 x = x >= 0.0 && x <= 1.0 in
          if not (ok01 m.Testability.cc && ok01 m.Testability.co) then
            Alcotest.failf "%s node %d: cc/co out of range" name id;
          if m.Testability.sc < 0.0 || m.Testability.so < 0.0 then
            Alcotest.failf "%s node %d: negative sequential measure" name id)
        etpn.Etpn.nodes)
    B.all

let test_everything_reachable () =
  (* in an allocated benchmark data path every register and unit is both
     controllable and observable to some degree *)
  List.iter
    (fun (name, d) ->
      let _, t = analyzed d in
      List.iter
        (fun (rid, m) ->
          if m.Testability.cc <= 0.0 then
            Alcotest.failf "%s R%d uncontrollable" name rid;
          if m.Testability.co <= 0.0 then
            Alcotest.failf "%s R%d unobservable" name rid;
          if m.Testability.sc = infinity || m.Testability.so = infinity then
            Alcotest.failf "%s R%d infinite sequential measures" name rid)
        (Testability.register_measures t))
    B.all

let test_input_registers_most_controllable () =
  (* a register fed directly from an input port has CC close to 1 *)
  let d = B.toy in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let t = Testability.analyze (Etpn.datapath etpn) in
  let reg_of name =
    (Binding.reg_of_value binding (Option.get (Dfg.value_of_name d name)))
      .Binding.reg_id
  in
  let m name =
    List.assoc (reg_of name) (Testability.register_measures t)
  in
  let a = m "a" and p = m "p" in
  Alcotest.(check bool) "input reg CC = 1" true (a.Testability.cc >= 0.99);
  Alcotest.(check bool) "deep value harder" true
    (p.Testability.cc < a.Testability.cc);
  Alcotest.(check bool) "SC grows with depth" true
    (p.Testability.sc > a.Testability.sc)

let test_output_registers_most_observable () =
  let d = B.toy in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let t = Testability.analyze (Etpn.datapath etpn) in
  let reg_of name =
    (Binding.reg_of_value binding (Option.get (Dfg.value_of_name d name)))
      .Binding.reg_id
  in
  let m name = List.assoc (reg_of name) (Testability.register_measures t) in
  let q = m "q" and b = m "b" in
  Alcotest.(check bool) "output reg CO high" true (q.Testability.co >= 0.9);
  Alcotest.(check bool) "input-side value less observable" true
    (b.Testability.co < q.Testability.co);
  Alcotest.(check bool) "SO grows away from outputs" true
    (b.Testability.so > q.Testability.so)

let test_mul_harder_than_add () =
  (* two parallel 1-op designs: through-mul controllability < through-add *)
  let mk kind =
    let d =
      Dfg.validate_exn
        {
          Dfg.name = "one";
          inputs = [ "a"; "b" ];
          ops = [ { Dfg.id = 1; kind; args = (Dfg.Input "a", Dfg.Input "b"); result = "r" } ];
          outputs = [ "r" ];
        }
    in
    let s = asap d in
    let etpn = Etpn.build_exn d s (Binding.default d) in
    let t = Testability.analyze (Etpn.datapath etpn) in
    let fus = Testability.fu_measures t in
    (* unit output controllability is reflected in the result register's CC *)
    let regs = Testability.register_measures t in
    let r_reg =
      List.find
        (fun (rid, _) ->
          let reg =
            List.find (fun r -> r.Binding.reg_id = rid)
              etpn.Etpn.binding.Binding.registers
          in
          List.mem (Dfg.V_op 1) reg.Binding.reg_values)
        regs
    in
    (snd r_reg, fus)
  in
  let m_add, _ = mk Hlts_dfg.Op.Add in
  let m_mul, _ = mk Hlts_dfg.Op.Mul in
  Alcotest.(check bool) "mul harder" true
    (m_mul.Testability.cc < m_add.Testability.cc)

let test_seq_depth_finite_positive () =
  List.iter
    (fun (name, d) ->
      let _, t = analyzed d in
      let depth = Testability.seq_depth_total t in
      if not (depth > 0.0 && depth < 1e6) then
        Alcotest.failf "%s: seq depth %f" name depth)
    B.all

let test_balance_score_prefers_complementary () =
  (* Three registers in a chain design: in-reg (good C, poor O), out-reg
     (poor C, good O), and compare merging complementary vs similar. *)
  let d = B.ewf in
  let s = asap d in
  let binding = Binding.default d in
  let etpn = Etpn.build_exn d s binding in
  let t = Testability.analyze (Etpn.datapath etpn) in
  let regs = Testability.register_measures t in
  (* most controllable-but-unobservable *)
  let by f = Hlts_util.Listx.max_by (fun (_, m) -> f m) regs in
  let good_c =
    Option.get (by (fun m -> m.Testability.cc -. m.Testability.co))
  in
  let good_o =
    Option.get (by (fun m -> m.Testability.co -. m.Testability.cc))
  in
  let node_of rid = Etpn.node_id_of_reg etpn rid in
  let complementary =
    Testability.balance_score t (node_of (fst good_c)) (node_of (fst good_o))
  in
  let similar =
    Testability.balance_score t (node_of (fst good_c)) (node_of (fst good_c))
  in
  Alcotest.(check bool) "complementary wins" true (complementary > similar)

let test_testability_cost_orders_designs () =
  (* the default (unshared) diffeq data path is easier to test than one
     with every op on one path through shared units? Not necessarily —
     but the cost must be finite and positive for both. *)
  let d = B.diffeq in
  let s = asap d in
  let c1 =
    Testability.testability_cost
      (Testability.analyze
         (Etpn.datapath (Etpn.build_exn d s (Binding.default d))))
  in
  let c2 =
    Testability.testability_cost
      (Testability.analyze
         (Etpn.datapath (Etpn.build_exn d s (Binding.allocate d s))))
  in
  Alcotest.(check bool) "finite positive" true
    (c1 > 0.0 && c2 > 0.0 && c1 < 1e6 && c2 < 1e6)

let test_deterministic () =
  let d = B.dct in
  let s = asap d in
  let etpn = Etpn.build_exn d s (Binding.allocate d s) in
  let dp = Etpn.datapath etpn in
  let t1 = Testability.analyze dp and t2 = Testability.analyze dp in
  List.iter
    (fun (id, _) ->
      let m1 = Testability.node_measures t1 id in
      let m2 = Testability.node_measures t2 id in
      Alcotest.(check bool) "same" true (m1 = m2))
    etpn.Etpn.nodes

let prop_monotone_under_merging_inputs =
  (* CC of any node never exceeds 1 even with many sources *)
  QCheck.Test.make ~name:"cc bounded across benchmarks" ~count:20
    QCheck.(int_bound (List.length B.all - 1))
    (fun i ->
      let _, d = List.nth B.all i in
      let _, t = analyzed d in
      List.for_all
        (fun (_, m) -> m.Testability.cc <= 1.0 +. 1e-9)
        (Testability.register_measures t))

let () =
  Alcotest.run "hlts_testability"
    [
      ( "propagation",
        [
          Alcotest.test_case "ranges" `Quick test_ranges_everywhere;
          Alcotest.test_case "reachable" `Quick test_everything_reachable;
          Alcotest.test_case "controllability gradient" `Quick
            test_input_registers_most_controllable;
          Alcotest.test_case "observability gradient" `Quick
            test_output_registers_most_observable;
          Alcotest.test_case "mul harder than add" `Quick test_mul_harder_than_add;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          QCheck_alcotest.to_alcotest prop_monotone_under_merging_inputs;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "seq depth" `Quick test_seq_depth_finite_positive;
          Alcotest.test_case "balance prefers complementary" `Quick
            test_balance_score_prefers_complementary;
          Alcotest.test_case "cost finite" `Quick test_testability_cost_orders_designs;
        ] );
    ]
