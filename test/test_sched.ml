(* Tests for Hlts_sched: schedule container, constraints, ASAP/ALAP,
   FDS, mobility-path scheduling. *)

open Hlts_sched
module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module B = Hlts_dfg.Benchmarks

let all_designs = List.filter (fun (n, _) -> n <> "toy") B.all

(* --- Schedule container ---------------------------------------------- *)

let test_schedule_basics () =
  let s = Schedule.of_assoc [ (1, 1); (2, 1); (3, 2) ] in
  Alcotest.(check int) "step" 2 (Schedule.step s 3);
  Alcotest.(check int) "length" 2 (Schedule.length s);
  Alcotest.(check (list int)) "ops at 1" [ 1; 2 ] (Schedule.ops_at s 1);
  Alcotest.(check (option int)) "missing" None (Schedule.step_opt s 9);
  let s' = Schedule.set s 3 5 in
  Alcotest.(check int) "after set" 5 (Schedule.step s' 3);
  Alcotest.(check int) "original untouched" 2 (Schedule.step s 3)

let test_schedule_rejects () =
  (match Schedule.of_assoc [ (1, 0) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "step 0 accepted");
  match Schedule.of_assoc [ (1, 1); (1, 2) ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate accepted"

let test_respects () =
  let d = B.toy in
  let good = Schedule.of_assoc [ (1, 1); (2, 2); (3, 3) ] in
  let bad = Schedule.of_assoc [ (1, 2); (2, 2); (3, 3) ] in
  let missing = Schedule.of_assoc [ (1, 1); (2, 2) ] in
  Alcotest.(check bool) "good" true (Schedule.respects d good);
  Alcotest.(check bool) "same step as pred" false (Schedule.respects d bad);
  Alcotest.(check bool) "missing op" false (Schedule.respects d missing)

(* --- Constraints ------------------------------------------------------ *)

let test_constraints () =
  let cons = Constraints.of_dfg B.toy in
  Alcotest.(check (list int)) "data preds" [ 2 ] (Constraints.preds cons 3);
  let cons = Constraints.add_arc cons 1 3 in
  Alcotest.(check (list int)) "with extra" [ 1; 2 ] (Constraints.preds cons 3);
  Alcotest.(check bool) "acyclic" true (Constraints.is_acyclic cons);
  Alcotest.(check bool) "cycle detected" true (Constraints.would_cycle cons 3 1);
  Alcotest.(check bool) "no cycle" false (Constraints.would_cycle cons 1 3);
  Alcotest.(check bool) "self cycle" true (Constraints.would_cycle cons 1 1);
  let cyclic = Constraints.add_arc cons 3 1 in
  Alcotest.(check bool) "now cyclic" false (Constraints.is_acyclic cyclic);
  match Constraints.add_arc cons 99 1 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unknown op accepted"

let test_extra_arcs_ordering () =
  (* extra_arcs is sorted lexicographically regardless of insertion
     order, and re-adding an arc is a no-op. *)
  let cons = Constraints.of_dfg B.toy in
  let cons = Constraints.add_arc cons 2 3 in
  let cons = Constraints.add_arc cons 1 2 in
  let cons = Constraints.add_arc cons 1 3 in
  let cons = Constraints.add_arc cons 1 2 in
  Alcotest.(check (list (pair int int)))
    "sorted, deduplicated"
    [ (1, 2); (1, 3); (2, 3) ]
    (Constraints.extra_arcs cons)

(* Property: the incremental reachability index agrees with the
   reference DFS oracle on random DAGs under random [add_arc]
   sequences, including arcs that close cycles. Ids are spaced by 3 so
   the dense id->index map is exercised on non-contiguous ids. *)
let random_dag rng =
  let n = 2 + Hlts_util.Rng.int rng 11 in
  let id i = 1 + (3 * i) in
  let ops =
    List.init n (fun i ->
        let operand () =
          if i = 0 || Hlts_util.Rng.int rng 4 = 0 then Dfg.Input "a"
          else Dfg.Op (id (Hlts_util.Rng.int rng i))
        in
        {
          Dfg.id = id i;
          kind = Op.Add;
          args = (operand (), operand ());
          result = Printf.sprintf "t%d" i;
        })
  in
  {
    Dfg.name = "rand";
    inputs = [ "a" ];
    ops;
    outputs = [ Printf.sprintf "t%d" (n - 1) ];
  }

let test_reachability_matches_oracle () =
  let rng = Hlts_util.Rng.create 20260806 in
  for case = 1 to 1000 do
    let d = random_dag rng in
    let ids = Array.of_list (List.map (fun o -> o.Dfg.id) d.Dfg.ops) in
    let n = Array.length ids in
    let cons = ref (Constraints.of_dfg d) in
    let check_all () =
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          let fast = Constraints.reachable !cons ids.(i) ids.(j) in
          let slow = Oracle.reachable_dfs !cons ids.(i) ids.(j) in
          if fast <> slow then
            Alcotest.failf "case %d: reachable N%d N%d: index %b, oracle %b"
              case ids.(i) ids.(j) fast slow
        done
      done
    in
    check_all ();
    let cyclic = ref false in
    for _ = 1 to 1 + Hlts_util.Rng.int rng 7 do
      let a = ids.(Hlts_util.Rng.int rng n) in
      let b = ids.(Hlts_util.Rng.int rng n) in
      let closes_cycle = Constraints.would_cycle !cons a b in
      let oracle = a = b || Oracle.reachable_dfs !cons b a in
      if closes_cycle <> oracle then
        Alcotest.failf "case %d: would_cycle N%d N%d: index %b, oracle %b" case
          a b closes_cycle oracle;
      (* mostly grow a DAG; occasionally close a cycle to exercise the
         full-rebuild path and the cyclic flag. *)
      if (not closes_cycle) || (a <> b && Hlts_util.Rng.int rng 4 = 0) then begin
        cons := Constraints.add_arc !cons a b;
        if closes_cycle then cyclic := true;
        if Constraints.is_acyclic !cons <> not !cyclic then
          Alcotest.failf "case %d: is_acyclic wrong after N%d -> N%d" case a b;
        check_all ()
      end
    done
  done

(* --- ASAP / ALAP ------------------------------------------------------ *)

let test_asap_length_is_chain () =
  List.iter
    (fun (name, d) ->
      let s = Basic.asap_exn (Constraints.of_dfg d) in
      Alcotest.(check bool) (name ^ " respects") true (Schedule.respects d s);
      Alcotest.(check int)
        (name ^ " length")
        (Dfg.longest_chain d)
        (Schedule.length s))
    all_designs

let test_asap_with_extra_arcs () =
  (* forcing toy's two independent... toy is a chain; use ex: N21 and N22
     are parallel; an arc serializes them. *)
  let cons = Constraints.add_arc (Constraints.of_dfg B.ex) 21 22 in
  let s = Basic.asap_exn cons in
  Alcotest.(check bool) "order" true (Schedule.step s 21 < Schedule.step s 22)

let prop_levels_match_oracle =
  (* the dense levels, and the schedule [Basic.asap] reads off them,
     against the id-keyed recursive ASAP, along random [add_arc]
     sequences — duplicate, implied and cycle-closing arcs included *)
  QCheck.Test.make ~name:"levels = recursive ASAP" ~count:300
    QCheck.(pair (int_bound 1_000_000) (int_range 1 12))
    (fun (seed, k) ->
      let d = Random_dfg.make seed in
      let rng = Hlts_util.Rng.create seed in
      List.for_all
        (fun c ->
          let oracle = Oracle.asap c in
          let basic =
            match Basic.asap c with
            | Error _ -> None
            | Ok s ->
              Some
                (Array.of_list
                   (List.map (fun o -> Schedule.step s o.Dfg.id) d.Dfg.ops))
          in
          Constraints.levels c = oracle && basic = oracle)
        (Random_dfg.constraint_sets rng d k))

let test_alap () =
  let cons = Constraints.of_dfg B.ex in
  let asap = Basic.asap_exn cons in
  let latency = Schedule.length asap + 2 in
  match Basic.alap cons ~latency with
  | Error msg -> Alcotest.fail msg
  | Ok alap ->
    Alcotest.(check bool) "respects" true (Schedule.respects B.ex alap);
    (* every sink sits at the last step *)
    let sinks =
      List.filter (fun o -> Dfg.succ_ids B.ex o.Dfg.id = []) B.ex.Dfg.ops
    in
    List.iter
      (fun o ->
        Alcotest.(check int) "sink at latency" latency
          (Schedule.step alap o.Dfg.id))
      sinks

let test_alap_infeasible () =
  let cons = Constraints.of_dfg B.ex in
  match Basic.alap cons ~latency:1 with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.fail "latency 1 should be infeasible"

let test_mobility () =
  let cons = Constraints.of_dfg B.ex in
  let latency = Schedule.length (Basic.asap_exn cons) in
  let mob = Basic.mobility cons ~latency in
  (* critical-path ops have zero mobility; all mobilities >= 0 *)
  Alcotest.(check bool) "non-negative" true (List.for_all (fun (_, m) -> m >= 0) mob);
  Alcotest.(check bool) "some zero" true (List.exists (fun (_, m) -> m = 0) mob)

(* --- FDS ---------------------------------------------------------------- *)

let test_fds_valid_all () =
  List.iter
    (fun (name, d) ->
      let cons = Constraints.of_dfg d in
      match Fds.schedule cons () with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok s ->
        Alcotest.(check bool) (name ^ " respects") true (Schedule.respects d s);
        Alcotest.(check int)
          (name ^ " at critical path")
          (Dfg.longest_chain d) (Schedule.length s))
    all_designs

let test_fds_balances () =
  (* With slack, FDS must not pile all multiplications of diffeq into one
     step: max concurrency of muls should drop below the ASAP bunching. *)
  let d = B.diffeq in
  let cons = Constraints.of_dfg d in
  let latency = Dfg.longest_chain d + 2 in
  match Fds.schedule cons ~latency () with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
    let mult_load step =
      List.length
        (List.filter
           (fun o -> o.Dfg.kind = Op.Mul && Schedule.step s o.Dfg.id = step)
           d.Dfg.ops)
    in
    let max_load = ref 0 in
    for step = 1 to Schedule.length s do
      max_load := max !max_load (mult_load step)
    done;
    Alcotest.(check bool) "spread" true (!max_load <= 3)

let test_fds_infeasible_latency () =
  match Fds.schedule (Constraints.of_dfg B.ex) ~latency:1 () with
  | Error (_ : string) -> ()
  | Ok _ -> Alcotest.fail "expected error"

(* --- mobility path ------------------------------------------------------ *)

let test_mobility_path_valid_all () =
  List.iter
    (fun (name, d) ->
      let cons = Constraints.of_dfg d in
      match Mobility_path.schedule cons () with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok s ->
        Alcotest.(check bool) (name ^ " respects") true (Schedule.respects d s))
    all_designs

let test_mobility_path_with_slack () =
  List.iter
    (fun (name, d) ->
      let cons = Constraints.of_dfg d in
      let latency = Dfg.longest_chain d + 3 in
      match Mobility_path.schedule cons ~latency () with
      | Error msg -> Alcotest.failf "%s: %s" name msg
      | Ok s ->
        Alcotest.(check bool) (name ^ " respects") true (Schedule.respects d s);
        Alcotest.(check bool)
          (name ^ " within latency")
          true
          (Schedule.length s <= latency))
    all_designs

let prop_schedulers_respect_extra_arcs =
  (* random extra (earlier -> later in some topo order) arcs stay respected *)
  QCheck.Test.make ~name:"schedulers honour extra arcs" ~count:40
    QCheck.(pair (int_bound 1000) (int_range 0 2))
    (fun (seed, which) ->
      let d = B.dct in
      let rng = Hlts_util.Rng.create seed in
      let ids = Array.of_list (List.map (fun o -> o.Dfg.id) (Dfg.topo_order d)) in
      let cons = ref (Constraints.of_dfg d) in
      for _ = 1 to 3 do
        let i = Hlts_util.Rng.int rng (Array.length ids - 1) in
        let j = i + 1 + Hlts_util.Rng.int rng (Array.length ids - i - 1) in
        if not (Constraints.would_cycle !cons ids.(i) ids.(j)) then
          cons := Constraints.add_arc !cons ids.(i) ids.(j)
      done;
      let sched =
        match which with
        | 0 -> Result.to_option (Basic.asap !cons)
        | 1 -> Result.to_option (Fds.schedule !cons ())
        | _ -> Result.to_option (Mobility_path.schedule !cons ())
      in
      match sched with
      | None -> false
      | Some s ->
        Schedule.respects d s
        && List.for_all
             (fun (a, b) -> Schedule.step s a < Schedule.step s b)
             (Constraints.extra_arcs !cons))

let () =
  Alcotest.run "hlts_sched"
    [
      ( "schedule",
        [
          Alcotest.test_case "basics" `Quick test_schedule_basics;
          Alcotest.test_case "rejects" `Quick test_schedule_rejects;
          Alcotest.test_case "respects" `Quick test_respects;
        ] );
      ( "constraints",
        [
          Alcotest.test_case "arcs and cycles" `Quick test_constraints;
          Alcotest.test_case "extra arcs ordering" `Quick
            test_extra_arcs_ordering;
          Alcotest.test_case "reachability vs DFS oracle" `Quick
            test_reachability_matches_oracle;
        ] );
      ( "asap_alap",
        [
          Alcotest.test_case "asap = chain" `Quick test_asap_length_is_chain;
          Alcotest.test_case "asap extra arcs" `Quick test_asap_with_extra_arcs;
          Alcotest.test_case "alap" `Quick test_alap;
          Alcotest.test_case "alap infeasible" `Quick test_alap_infeasible;
          Alcotest.test_case "mobility" `Quick test_mobility;
          QCheck_alcotest.to_alcotest prop_levels_match_oracle;
        ] );
      ( "fds",
        [
          Alcotest.test_case "valid on all benchmarks" `Quick test_fds_valid_all;
          Alcotest.test_case "balances concurrency" `Quick test_fds_balances;
          Alcotest.test_case "infeasible latency" `Quick test_fds_infeasible_latency;
        ] );
      ( "mobility_path",
        [
          Alcotest.test_case "valid on all benchmarks" `Quick
            test_mobility_path_valid_all;
          Alcotest.test_case "valid with slack" `Quick test_mobility_path_with_slack;
          QCheck_alcotest.to_alcotest prop_schedulers_respect_extra_arcs;
        ] );
    ]
