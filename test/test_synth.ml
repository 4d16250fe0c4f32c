(* Tests for Hlts_synth: state invariants, merger transformations
   (feasibility, scheduling constraints, dE/dH bookkeeping), Algorithm 1
   and the four flows. *)

open Hlts_synth
module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module B = Hlts_dfg.Benchmarks
module Schedule = Hlts_sched.Schedule
module Binding = Hlts_alloc.Binding
module Etpn = Hlts_etpn.Etpn

(* --- state -------------------------------------------------------------- *)

let test_init_consistent () =
  List.iter
    (fun (name, d) ->
      let s = State.init d in
      if not (State.consistent s) then Alcotest.failf "%s inconsistent" name;
      Alcotest.(check int)
        (name ^ " initial E = critical path")
        (Dfg.longest_chain d)
        (State.execution_time s))
    B.all

let test_area_positive () =
  let s = State.init B.ex in
  Alcotest.(check bool) "positive" true (State.area s ~bits:8 > 0.0)

(* --- module merger -------------------------------------------------------- *)

let find_fu_of_op state op =
  (Binding.fu_of_op state.State.binding op).Binding.fu_id

let test_merge_modules_basic () =
  (* Ex: merge the units of N21 and N22 (both multiplications at step 1):
     afterwards they must sit in different steps on one unit. *)
  let s = State.init B.ex in
  let fa = find_fu_of_op s 21 and fb = find_fu_of_op s 22 in
  match Merge.modules s ~bits:8 fa fb with
  | None -> Alcotest.fail "merge failed"
  | Some o ->
    let s' = o.Merge.state in
    Alcotest.(check bool) "consistent" true (State.consistent s');
    let fu21 = find_fu_of_op s' 21 and fu22 = find_fu_of_op s' 22 in
    Alcotest.(check int) "same unit" fu21 fu22;
    Alcotest.(check bool) "different steps" true
      (Schedule.step s'.State.schedule 21 <> Schedule.step s'.State.schedule 22);
    Alcotest.(check int) "one unit fewer" 7
      (List.length s'.State.binding.Binding.fus);
    Alcotest.(check bool) "dE >= 0" true (o.Merge.delta_e >= 0);
    Alcotest.(check bool) "saves hardware" true (o.Merge.delta_h < 0.0)

let test_merge_modules_incompatible () =
  (* a multiplier cannot merge with an adder-class unit *)
  let s = State.init B.ex in
  let fa = find_fu_of_op s 21 (* mul *) and fb = find_fu_of_op s 30 (* add *) in
  Alcotest.(check bool) "rejected" true (Merge.modules s ~bits:8 fa fb = None)

let test_merge_modules_self () =
  let s = State.init B.ex in
  let f = find_fu_of_op s 21 in
  Alcotest.(check bool) "self merge rejected" true
    (Merge.modules s ~bits:8 f f = None)

let test_merge_modules_chained_ops () =
  (* toy: N1 -> N2 -> N3 chained; merging N1's and N3's units (add+sub
     share an ALU) needs no rescheduling since they're already ordered *)
  let s = State.init B.toy in
  let fa = find_fu_of_op s 1 and fb = find_fu_of_op s 3 in
  match Merge.modules s ~bits:8 fa fb with
  | None -> Alcotest.fail "merge failed"
  | Some o ->
    Alcotest.(check int) "no dE" 0 o.Merge.delta_e;
    Alcotest.(check bool) "consistent" true (State.consistent o.Merge.state)

(* --- register merger -------------------------------------------------------- *)

let reg_of_name state name =
  let v = Option.get (Dfg.value_of_name state.State.dfg name) in
  (Binding.reg_of_value state.State.binding v).Binding.reg_id

let test_merge_registers_basic () =
  (* toy: value s (dies at step 2) and value q (born at 3) can share *)
  let s = State.init B.toy in
  let ra = reg_of_name s "s" and rb = reg_of_name s "q" in
  match Merge.registers s ~bits:8 ra rb with
  | None -> Alcotest.fail "merge failed"
  | Some o ->
    let s' = o.Merge.state in
    Alcotest.(check bool) "consistent" true (State.consistent s');
    Alcotest.(check int) "one register fewer"
      (List.length (Dfg.values B.toy) - 1)
      (List.length s'.State.binding.Binding.registers)

let test_merge_registers_same_op_inputs () =
  (* values a and b are both read by N1 as its two operands: they can
     never share a register *)
  let s = State.init B.toy in
  let ra = reg_of_name s "a" and rb = reg_of_name s "b" in
  Alcotest.(check bool) "rejected" true (Merge.registers s ~bits:8 ra rb = None)

let test_merge_registers_two_outputs () =
  (* ex: y2 and z2 are both outputs — they never expire, so they cannot
     share a register *)
  let s = State.init B.ex in
  let ra = reg_of_name s "y2" and rb = reg_of_name s "z2" in
  Alcotest.(check bool) "rejected" true (Merge.registers s ~bits:8 ra rb = None)

let test_merge_registers_orders_lifetimes () =
  (* ex: inputs e and b are used at different times after merging forces
     an order; lifetimes must be disjoint in the merged register *)
  let s = State.init B.ex in
  let ra = reg_of_name s "u" and rb = reg_of_name s "z" in
  match Merge.registers s ~bits:8 ra rb with
  | None -> ()  (* infeasible is acceptable for this pair *)
  | Some o ->
    Alcotest.(check bool) "consistent" true (State.consistent o.Merge.state)

let test_merge_registers_respects_added_arcs () =
  (* after a register merger, the extra arcs are all honoured *)
  let s = State.init B.diffeq in
  let ra = reg_of_name s "t1" and rb = reg_of_name s "t5" in
  match Merge.registers s ~bits:8 ra rb with
  | None -> ()
  | Some o ->
    let s' = o.Merge.state in
    List.iter
      (fun (a, b) ->
        Alcotest.(check bool) "arc honoured" true
          (Schedule.step s'.State.schedule a < Schedule.step s'.State.schedule b))
      (Hlts_sched.Constraints.extra_arcs s'.State.cons)

(* --- candidates -------------------------------------------------------------- *)

let test_candidates_mergeable_only () =
  let s = State.init B.diffeq in
  let t = Hlts_testability.Testability.analyze (State.datapath s) in
  let pairs = Candidates.all_scored s t Candidates.Balance in
  Alcotest.(check bool) "nonempty" true (pairs <> []);
  List.iter
    (fun (pair, _) ->
      match pair with
      | Candidates.Units (a, b) ->
        let kinds fu_id =
          let fu =
            List.find (fun f -> f.Binding.fu_id = fu_id) s.State.binding.Binding.fus
          in
          List.map (fun id -> (Dfg.op_by_id B.diffeq id).Dfg.kind) fu.Binding.fu_ops
        in
        Alcotest.(check bool) "class-compatible" true
          (Op.shared_class (kinds a @ kinds b) <> None)
      | Candidates.Registers (a, b) ->
        Alcotest.(check bool) "distinct" true (a <> b))
    pairs

let test_select_k () =
  let s = State.init B.diffeq in
  let t = Hlts_testability.Testability.analyze (State.datapath s) in
  Alcotest.(check int) "k=3" 3
    (List.length (Candidates.select s t Candidates.Balance ~k:3));
  Alcotest.(check int) "k=1" 1
    (List.length (Candidates.select s t Candidates.Balance ~k:1))

let test_scores_descending () =
  let s = State.init B.dct in
  let t = Hlts_testability.Testability.analyze (State.datapath s) in
  List.iter
    (fun strategy ->
      let scored = Candidates.all_scored s t strategy in
      let rec check = function
        | [] | [ _ ] -> ()
        | (_, s1) :: ((_, s2) :: _ as rest) ->
          Alcotest.(check bool) "descending" true (s1 >= s2);
          check rest
      in
      check scored)
    [ Candidates.Balance; Candidates.Connectivity ]

(* --- Algorithm 1 -------------------------------------------------------------- *)

let test_run_all_benchmarks () =
  List.iter
    (fun (name, d) ->
      let r = Synth.run d in
      if not (State.consistent r.Synth.final) then
        Alcotest.failf "%s final inconsistent" name;
      Alcotest.(check int)
        (name ^ " records = iterations")
        r.Synth.iterations
        (List.length r.Synth.records))
    B.all

let test_run_reduces_hardware () =
  List.iter
    (fun (name, d) ->
      let s0 = State.init d in
      let r = Synth.run d in
      Alcotest.(check bool) (name ^ " area shrinks") true
        (State.area r.Synth.final ~bits:8 < State.area s0 ~bits:8);
      let st = Etpn.stats (State.etpn r.Synth.final) in
      Alcotest.(check bool)
        (name ^ " fewer registers")
        true
        (st.Etpn.n_registers < List.length (Dfg.values d)))
    (List.filter (fun (n, _) -> n <> "toy") B.all)

let test_latency_budget_respected () =
  List.iter
    (fun (name, d) ->
      let params = { Synth.default_params with Synth.latency_factor = 1.5 } in
      let r = Synth.run ~params d in
      let budget =
        int_of_float (ceil (1.5 *. float_of_int (Dfg.longest_chain d)))
      in
      Alcotest.(check bool)
        (name ^ " within budget")
        true
        (Schedule.length r.Synth.final.State.schedule <= budget))
    B.all

let test_exhaustive_compacts_more () =
  let d = B.ex in
  let improving = Synth.run d in
  let exhaustive =
    Synth.run
      ~params:{ Synth.default_params with
                Synth.stop = Synth.Exhaustive;
                latency_factor = infinity }
      d
  in
  let fus r = List.length r.Synth.final.State.binding.Binding.fus in
  Alcotest.(check bool) "fewer or equal units" true
    (fus exhaustive <= fus improving);
  (* exhaustive Ex compacts the four multiplications onto one unit and
     everything else onto one ALU *)
  Alcotest.(check int) "ex units fully compacted" 2 (fus exhaustive)

let test_k_influences_path () =
  (* k=1 follows pure balance priority; a large k optimizes cost more *)
  let run k =
    Synth.run ~params:{ Synth.default_params with Synth.k } B.dct
  in
  let r1 = run 1 and r9 = run 9 in
  Alcotest.(check bool) "both consistent" true
    (State.consistent r1.Synth.final && State.consistent r9.Synth.final)

let test_iteration_spans () =
  (* every committed merge emits exactly one "synth.iteration" span whose
     cost argument satisfies the paper's cost = alpha*dE + beta*dH *)
  let params = Synth.default_params in
  let events = ref [] in
  let sink =
    { Hlts_obs.emit = (fun e -> events := e :: !events); flush = ignore }
  in
  let r = Hlts_obs.with_sink sink (fun () -> Synth.run ~params B.ex) in
  let committed =
    List.filter_map
      (function
        | Hlts_obs.Span_end { name = "synth.iteration"; args; _ }
          when List.mem_assoc "cost" args ->
          Some args
        | _ -> None)
      (List.rev !events)
  in
  Alcotest.(check int) "one span per committed merge" r.Synth.iterations
    (List.length committed);
  List.iter
    (fun args ->
      match
        ( List.assoc_opt "cost" args,
          List.assoc_opt "dE" args,
          List.assoc_opt "dH_units" args )
      with
      | ( Some (Hlts_obs.Float cost),
          Some (Hlts_obs.Int de),
          Some (Hlts_obs.Float dh_units) ) ->
        Alcotest.(check (float 1e-9))
          "cost = alpha*dE + beta*dH"
          ((params.Synth.alpha *. float_of_int de)
          +. (params.Synth.beta *. dh_units))
          cost
      | _ -> Alcotest.fail "iteration span lacks cost/dE/dH arguments")
    committed

let test_deterministic () =
  let r1 = Synth.run B.diffeq and r2 = Synth.run B.diffeq in
  Alcotest.(check int) "same iterations" r1.Synth.iterations r2.Synth.iterations;
  Alcotest.(check bool) "same schedule" true
    (Schedule.bindings r1.Synth.final.State.schedule
    = Schedule.bindings r2.Synth.final.State.schedule)

(* Golden merge trajectories at 8 bits, recorded with the pre-index,
   pre-cache implementation (fresh-DFS reachability, no memoized
   state views). The reachability index, the state caches and the
   candidate/lifetime rewrites must preserve the committed merge
   sequence bit for bit — %h prints exact float images, so any change
   in summation order or tie-breaking shows up here. The three
   [Benchmarks.random] graphs are the ones the synth-scale benchmark
   times. *)
let records_digest records =
  let line r =
    Printf.sprintf "%d|%s|%d|%h|%h|%h" r.Synth.iteration r.Synth.description
      r.Synth.delta_e r.Synth.delta_h r.Synth.cost r.Synth.seq_depth
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map line records)))

let test_golden_trajectories () =
  List.iter
    (fun (name, dfg, digest, iterations, e) ->
      let r = Synth.run dfg in
      Alcotest.(check int) (name ^ " iterations") iterations r.Synth.iterations;
      Alcotest.(check int)
        (name ^ " final E")
        e
        (State.execution_time r.Synth.final);
      Alcotest.(check string)
        (name ^ " records digest")
        digest
        (records_digest r.Synth.records))
    [
      ("tseng", B.tseng, "e7d29eb3d02b6a2b3332583109dbb378", 7, 4);
      ("paulin", B.paulin, "686cc71cada1cdcf6920f32ea3f2bd46", 15, 7);
      ( "rnd-s1-n40",
        B.random ~seed:1 ~ops:40,
        "00ded574205d6966110b2fdddf64eeb8",
        62,
        16 );
      ( "rnd-s2-n44",
        B.random ~seed:2 ~ops:44,
        "6dcda11267e03366753cd85686f04c19",
        68,
        19 );
      ( "rnd-s3-n48",
        B.random ~seed:3 ~ops:48,
        "f376d5572b2367e711e3d8f6fa1c6dc9",
        76,
        21 );
    ]

(* --- test points -------------------------------------------------------- *)

let test_recommend_ranks_unobservable () =
  let s = State.init B.ex in
  let recs = Test_points.recommend s ~k:3 in
  Alcotest.(check int) "k respected" 3 (List.length recs);
  (* the top recommendation is a register with below-median observability *)
  let t = Hlts_testability.Testability.analyze (State.datapath s) in
  let all = Hlts_testability.Testability.register_measures t in
  let co r = (List.assoc r all).Hlts_testability.Testability.co in
  let top = List.hd recs in
  let worse_than_top =
    List.length (List.filter (fun (r, _) -> co r >= co top) all)
  in
  Alcotest.(check bool) "top is poorly observable" true
    (worse_than_top >= List.length all / 2)

let test_insert_adds_ports () =
  let s = State.init B.toy in
  let recs = Test_points.recommend s ~k:2 in
  let etpn = Test_points.insert s recs in
  Alcotest.(check int) "two new nodes"
    (List.length (State.etpn s).Etpn.nodes + 2)
    (List.length etpn.Etpn.nodes)

(* --- flows -------------------------------------------------------------- *)

let test_flows_all_run () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun a ->
          let o = Flows.synthesize a d in
          if not (State.consistent o.Flows.state) then
            Alcotest.failf "%s/%s inconsistent" name (Flows.approach_name a))
        [ Flows.Camad; Flows.Approach1; Flows.Approach2; Flows.Ours ])
    B.all

let test_ours_shape_on_ex () =
  (* Table 1 shape: ours uses few registers (the paper reports 5) and
     shares the subtractions on one ALU-class unit *)
  let o = Flows.synthesize Flows.Ours B.ex in
  let st = Etpn.stats o.Flows.etpn in
  Alcotest.(check bool) "<= 6 registers" true (st.Etpn.n_registers <= 6);
  Alcotest.(check bool) "<= 4 units" true (st.Etpn.n_fus <= 4)

let test_ours_better_seq_depth_than_camad () =
  (* the point of the paper: balance-driven merging yields a lower
     sequential-depth metric than connectivity-driven merging. Greedy
     paths differ per design, so compare the total over the three
     evaluation benchmarks. *)
  let seqd a =
    Hlts_util.Listx.sum_by
      (fun d ->
        let o = Flows.synthesize a d in
        Hlts_testability.Testability.seq_depth_total
          (State.analysis o.Flows.state))
      [ B.ex; B.dct; B.diffeq ]
  in
  Alcotest.(check bool) "ours <= camad overall" true
    (seqd Flows.Ours <= seqd Flows.Camad)

let test_approach_names () =
  List.iter
    (fun a ->
      match Flows.approach_of_string (Flows.approach_name a) with
      | Some a' -> Alcotest.(check bool) "roundtrip" true (a = a')
      | None -> Alcotest.fail "name not parsed")
    [ Flows.Camad; Flows.Ours ];
  Alcotest.(check bool) "a1" true
    (Flows.approach_of_string "approach1" = Some Flows.Approach1);
  Alcotest.(check bool) "junk" true (Flows.approach_of_string "zzz" = None)

let prop_merge_preserves_semantics =
  (* any single feasible merger keeps the schedule respecting the DFG and
     the binding partition complete *)
  QCheck.Test.make ~name:"random mergers stay consistent" ~count:60
    QCheck.(pair (int_bound 10_000) (int_bound (List.length B.all - 1)))
    (fun (seed, bi) ->
      let _, d = List.nth B.all bi in
      let s = State.init d in
      let rng = Hlts_util.Rng.create seed in
      let fus = Array.of_list s.State.binding.Binding.fus in
      let regs = Array.of_list s.State.binding.Binding.registers in
      let outcome =
        if Hlts_util.Rng.bool rng && Array.length fus >= 2 then begin
          let a = Hlts_util.Rng.int rng (Array.length fus) in
          let b = Hlts_util.Rng.int rng (Array.length fus) in
          Merge.modules s ~bits:8 fus.(a).Binding.fu_id fus.(b).Binding.fu_id
        end
        else begin
          let a = Hlts_util.Rng.int rng (Array.length regs) in
          let b = Hlts_util.Rng.int rng (Array.length regs) in
          Merge.registers s ~bits:8 regs.(a).Binding.reg_id regs.(b).Binding.reg_id
        end
      in
      match outcome with
      | None -> true
      | Some o -> State.consistent o.Merge.state)

(* --- estimators against their references ------------------------------- *)

module Datapath = Hlts_etpn.Datapath
module Testability = Hlts_testability.Testability
module Floorplan = Hlts_floorplan.Floorplan

(* E read off the schedule = the critical path of the control net of
   the validating builder's schedule. *)
let e_matches_petri s =
  let etpn = Etpn.build_exn s.State.dfg s.State.schedule s.State.binding in
  State.execution_time s
  = Petri.execution_time (Petri.chain (Schedule.length etpn.Etpn.schedule))

(* The final states of the four flows, per benchmark and width,
   synthesized once for both estimator tests. *)
let flow_states =
  let memo = Hashtbl.create 32 in
  fun ~bits (name, d) ->
    match Hashtbl.find_opt memo (name, bits) with
    | Some states -> states
    | None ->
      let params = { Synth.default_params with Synth.bits } in
      let states =
        List.map
          (fun a -> (Flows.synthesize ~params a d).Flows.state)
          Flows.[ Camad; Approach1; Approach2; Ours ]
      in
      Hashtbl.replace memo (name, bits) states;
      states

let test_e_matches_petri () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun s ->
          if not (e_matches_petri s) then
            Alcotest.failf "%s: E %d is not the control net's" name
              (State.execution_time s))
        (State.init d :: flow_states ~bits:8 (name, d)))
    B.all

let prop_e_matches_petri =
  QCheck.Test.make ~name:"E = control net on random trajectories" ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_bound 12))
    (fun (seed, steps) ->
      let rng = Hlts_util.Rng.create seed in
      List.for_all e_matches_petri
        (Random_dfg.trajectory rng (Random_dfg.make seed) steps))

let hex_measures m =
  Printf.sprintf "%h %h %h %h" m.Testability.cc m.Testability.sc
    m.Testability.co m.Testability.so

(* Where the data-path view of [dp]/[etpn] departs from the list-scan
   ETPN [d] of the same design: nodes, arcs (order, ports, guards), the
   view's unguarded arcs, the floorplan at every width and every node's
   testability measures, floats compared with [%h]. *)
let view_mismatch ~bits_list d etpn dp analysis =
  let arc_key a = (a.Etpn.a_src, a.Etpn.a_dst, a.Etpn.a_port) in
  let view_key a = (a.Datapath.a_src, a.Datapath.a_dst, a.Datapath.a_port) in
  let ids = List.init (Datapath.size dp) Fun.id in
  if Oracle.of_etpn etpn <> d then Some "ETPN nodes or arcs"
  else if List.map (fun id -> (id, Datapath.node dp id)) ids <> d.Oracle.nodes
  then Some "view nodes"
  else if
    List.map view_key (Datapath.arcs dp) <> List.map arc_key d.Oracle.arcs
  then Some "view arcs"
  else
    match
      List.find_opt
        (fun bits ->
          Printf.sprintf "%h" (Floorplan.area dp ~bits)
          <> Printf.sprintf "%h" (Oracle.floorplan_plan d ~bits).Floorplan.total)
        bits_list
    with
    | Some bits -> Some (Printf.sprintf "area at %d bit" bits)
    | None -> (
      let reference = Oracle.testability_node_measures d in
      match
        List.find_opt
          (fun id ->
            hex_measures (Testability.node_measures analysis id)
            <> hex_measures (reference id))
          ids
      with
      | Some id -> Some (Printf.sprintf "measures of node %d" id)
      | None -> None)

(* The state's own view, H and analysis; the ETPN with all registers
   tapped, stacked; and the structure of each register tapped alone. *)
let state_view_mismatch ~bits_list s =
  let d =
    match Oracle.etpn_build s.State.dfg s.State.schedule s.State.binding with
    | Ok d -> d
    | Error e -> failwith e
  in
  let etpn = State.etpn s in
  let own =
    match
      view_mismatch ~bits_list d etpn (State.datapath s) (State.analysis s)
    with
    | Some _ as m -> m
    | None ->
      List.find_opt
        (fun bits ->
          Printf.sprintf "%h" (State.area s ~bits)
          <> Printf.sprintf "%h" (Oracle.floorplan_plan d ~bits).Floorplan.total)
        bits_list
      |> Option.map (Printf.sprintf "State.area at %d bit")
  in
  let tapped (d, etpn) =
    let dp = Etpn.datapath etpn in
    view_mismatch ~bits_list d etpn dp (Testability.analyze dp)
    |> Option.map (( ^ ) "tapped: ")
  in
  let regs =
    List.map (fun r -> r.Binding.reg_id) s.State.binding.Binding.registers
  in
  let tap (d, etpn) reg_id =
    ( Oracle.etpn_add_observation_point d ~reg_id,
      Etpn.add_observation_point etpn ~reg_id )
  in
  match own with
  | Some _ -> own
  | None -> (
    match tapped (List.fold_left tap (d, etpn) regs) with
    | Some _ as m -> m
    | None ->
      List.find_opt
        (fun reg_id ->
          let d, etpn = tap (d, etpn) reg_id in
          Oracle.of_etpn etpn <> d)
        regs
      |> Option.map (Printf.sprintf "R%d tapped alone"))

let test_view_matches_oracle () =
  List.iter
    (fun (name, d) ->
      List.iter
        (fun bits ->
          let rng = Hlts_util.Rng.create bits in
          List.iteri
            (fun i s ->
              match state_view_mismatch ~bits_list:[ bits ] s with
              | None -> ()
              | Some what -> Alcotest.failf "%s@%d state %d: %s" name bits i what)
            ((State.init d :: flow_states ~bits (name, d))
            @ Random_dfg.trajectory rng d 6))
        [ 4; 8; 16 ])
    B.all

let prop_view_matches_oracle =
  QCheck.Test.make ~name:"view = list-scan ETPN on random trajectories"
    ~count:60
    QCheck.(pair (int_bound 1_000_000) (int_bound 12))
    (fun (seed, steps) ->
      let rng = Hlts_util.Rng.create seed in
      List.for_all
        (fun s -> state_view_mismatch ~bits_list:[ 4; 8; 16 ] s = None)
        (Random_dfg.trajectory rng (Random_dfg.make seed) steps))

module Lifetime = Hlts_alloc.Lifetime

let prop_order_metric_matches_oracle =
  (* the SR2 trial metric — the set's levels through the dense value
     rows, as the merge engine reads it — against the lifetimes of the
     recursive ASAP schedule *)
  QCheck.Test.make ~name:"SR2 trial metric = oracle ASAP lifetimes"
    ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (seed, k) ->
      let d = Random_dfg.make seed in
      let rng = Hlts_util.Rng.create seed in
      List.for_all
        (fun c ->
          let metric =
            Option.map (Lifetime.occupancy d) (Hlts_sched.Constraints.levels c)
          in
          match Oracle.asap c with
          | None -> metric = None
          | Some steps ->
            let s =
              Schedule.of_assoc
                (List.mapi (fun i o -> (o.Dfg.id, steps.(i))) d.Dfg.ops)
            in
            let occupancy =
              List.fold_left
                (fun acc (_, iv) -> acc + (iv.Lifetime.death - iv.Lifetime.birth))
                0 (Lifetime.of_schedule d s)
            in
            metric = Some (occupancy, Schedule.length s))
        (Random_dfg.constraint_sets rng d k))

let test_inconsistent_raises () =
  (* the toy's N2 reads N1 and N3 reads N2: one step for all is invalid *)
  let d = B.toy in
  let s =
    State.make ~dfg:d ~cons:(Hlts_sched.Constraints.of_dfg d)
      ~schedule:(Schedule.of_assoc [ (1, 1); (2, 1); (3, 1) ])
      ~binding:(Binding.default d) ()
  in
  Alcotest.(check bool) "inconsistent" false (State.consistent s);
  let raises f =
    match f () with _ -> false | exception Invalid_argument _ -> true
  in
  Alcotest.(check bool) "datapath raises" true
    (raises (fun () -> ignore (State.datapath s)));
  Alcotest.(check bool) "area raises" true
    (raises (fun () -> ignore (State.area s ~bits:8)));
  Alcotest.(check bool) "etpn raises" true
    (raises (fun () -> ignore (State.etpn s)))

let () =
  Alcotest.run "hlts_synth"
    [
      ( "state",
        [
          Alcotest.test_case "init consistent" `Quick test_init_consistent;
          Alcotest.test_case "area positive" `Quick test_area_positive;
        ] );
      ( "merge_modules",
        [
          Alcotest.test_case "basic" `Quick test_merge_modules_basic;
          Alcotest.test_case "incompatible" `Quick test_merge_modules_incompatible;
          Alcotest.test_case "self" `Quick test_merge_modules_self;
          Alcotest.test_case "chained" `Quick test_merge_modules_chained_ops;
        ] );
      ( "merge_registers",
        [
          Alcotest.test_case "basic" `Quick test_merge_registers_basic;
          Alcotest.test_case "same-op inputs" `Quick test_merge_registers_same_op_inputs;
          Alcotest.test_case "two outputs" `Quick test_merge_registers_two_outputs;
          Alcotest.test_case "orders lifetimes" `Quick
            test_merge_registers_orders_lifetimes;
          Alcotest.test_case "arcs honoured" `Quick
            test_merge_registers_respects_added_arcs;
          QCheck_alcotest.to_alcotest prop_merge_preserves_semantics;
        ] );
      ( "candidates",
        [
          Alcotest.test_case "mergeable only" `Quick test_candidates_mergeable_only;
          Alcotest.test_case "select k" `Quick test_select_k;
          Alcotest.test_case "scores descending" `Quick test_scores_descending;
        ] );
      ( "algorithm1",
        [
          Alcotest.test_case "all benchmarks" `Quick test_run_all_benchmarks;
          Alcotest.test_case "reduces hardware" `Quick test_run_reduces_hardware;
          Alcotest.test_case "latency budget" `Quick test_latency_budget_respected;
          Alcotest.test_case "exhaustive compacts" `Quick test_exhaustive_compacts_more;
          Alcotest.test_case "k variants" `Quick test_k_influences_path;
          Alcotest.test_case "iteration spans" `Quick test_iteration_spans;
          Alcotest.test_case "deterministic" `Quick test_deterministic;
          Alcotest.test_case "golden trajectories" `Quick
            test_golden_trajectories;
        ] );
      ( "test_points",
        [
          Alcotest.test_case "recommend" `Quick test_recommend_ranks_unobservable;
          Alcotest.test_case "insert" `Quick test_insert_adds_ports;
        ] );
      ( "estimators",
        [
          Alcotest.test_case "E = control net" `Quick test_e_matches_petri;
          QCheck_alcotest.to_alcotest prop_e_matches_petri;
          Alcotest.test_case "view = list-scan ETPN" `Quick
            test_view_matches_oracle;
          QCheck_alcotest.to_alcotest prop_view_matches_oracle;
          Alcotest.test_case "inconsistent state raises" `Quick
            test_inconsistent_raises;
          QCheck_alcotest.to_alcotest prop_order_metric_matches_oracle;
        ] );
      ( "flows",
        [
          Alcotest.test_case "all run" `Quick test_flows_all_run;
          Alcotest.test_case "ex shape" `Quick test_ours_shape_on_ex;
          Alcotest.test_case "seq depth vs camad" `Quick
            test_ours_better_seq_depth_than_camad;
          Alcotest.test_case "names" `Quick test_approach_names;
        ] );
    ]
