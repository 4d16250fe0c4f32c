(* Tests for the reference Petri net: validation, firing semantics,
   reachability-tree critical path, including choice (conditional) and
   join structures. *)

let pl id ?(delay = 1) name = { Petri.p_id = id; p_name = name; p_delay = delay }
let tr id name t_in t_out = { Petri.t_id = id; t_name = name; t_in; t_out }

let expect_error what r =
  match r with
  | Ok _ -> Alcotest.failf "expected %s to be rejected" what
  | Error (_ : string) -> ()

let test_validation () =
  expect_error "duplicate place"
    (Petri.make ~places:[ pl 0 "a"; pl 0 "b" ] ~transitions:[] ~initial:[ 0 ]);
  expect_error "dangling place ref"
    (Petri.make ~places:[ pl 0 "a" ]
       ~transitions:[ tr 1 "t" [ 0 ] [ 9 ] ]
       ~initial:[ 0 ]);
  expect_error "no inputs"
    (Petri.make ~places:[ pl 0 "a" ] ~transitions:[ tr 1 "t" [] [ 0 ] ]
       ~initial:[ 0 ]);
  expect_error "empty initial"
    (Petri.make ~places:[ pl 0 "a" ] ~transitions:[] ~initial:[]);
  expect_error "unknown initial"
    (Petri.make ~places:[ pl 0 "a" ] ~transitions:[] ~initial:[ 5 ]);
  expect_error "negative delay"
    (Petri.make ~places:[ pl 0 ~delay:(-1) "a" ] ~transitions:[] ~initial:[ 0 ])

let test_chain_time () =
  List.iter
    (fun n ->
      Alcotest.(check int)
        (Printf.sprintf "chain %d" n)
        n
        (Petri.execution_time (Petri.chain n)))
    [ 0; 1; 2; 5; 17 ]

let test_chain_step_delay () =
  Alcotest.(check int) "delay 3" 12 (Petri.execution_time (Petri.chain ~step_delay:3 4))

let test_chain_critical_path_steps () =
  let path = Petri.critical_path (Petri.chain 4) in
  Alcotest.(check int) "time" 4 path.Petri.total_time;
  Alcotest.(check (list (pair int int)))
    "four firings at times 0..3"
    [ (1, 0); (2, 1); (3, 2); (4, 3) ]
    path.Petri.steps

let test_final_places () =
  let net = Petri.chain 3 in
  Alcotest.(check (list int)) "sink is last place" [ 3 ] (Petri.final_places net)

(* Fork-join: start -> (a | b in parallel) -> join. Branch a is 3 long,
   branch b is 1 long; the join waits for the slower branch. *)
let fork_join =
  Petri.make_exn
    ~places:
      [
        pl 0 ~delay:0 "start";
        pl 1 ~delay:3 "a";
        pl 2 ~delay:1 "b";
        pl 3 ~delay:1 "join";
      ]
    ~transitions:
      [ tr 1 "fork" [ 0 ] [ 1; 2 ]; tr 2 "join" [ 1; 2 ] [ 3 ] ]
    ~initial:[ 0 ]

let test_fork_join () =
  Alcotest.(check int) "max branch + join" 4 (Petri.execution_time fork_join)

(* Choice: start -> (fast | slow), mutually exclusive. Worst case = slow. *)
let choice =
  Petri.make_exn
    ~places:[ pl 0 ~delay:0 "start"; pl 1 ~delay:2 "fast"; pl 2 ~delay:7 "slow" ]
    ~transitions:[ tr 1 "go_fast" [ 0 ] [ 1 ]; tr 2 "go_slow" [ 0 ] [ 2 ] ]
    ~initial:[ 0 ]

let test_choice_worst_case () =
  Alcotest.(check int) "worst branch" 7 (Petri.execution_time choice)

let test_cycle_bounded () =
  (* A self-loop grows time forever; the budget must stop it. *)
  let net =
    Petri.make_exn
      ~places:[ pl 0 ~delay:1 "p" ]
      ~transitions:[ tr 1 "loop" [ 0 ] [ 0 ] ]
      ~initial:[ 0 ]
  in
  match Petri.critical_path ~max_nodes:100 net with
  | (_ : Petri.path) -> Alcotest.fail "expected Bounded"
  | exception Petri.Bounded -> ()

let test_dead_net_time () =
  (* No transitions at all: time is the initial token's own delay. *)
  let net = Petri.make_exn ~places:[ pl 0 ~delay:5 "p" ] ~transitions:[] ~initial:[ 0 ] in
  Alcotest.(check int) "initial delay" 5 (Petri.execution_time net)

(* Diamond: start forks into two parallel chains of different lengths
   that re-join; the join waits for the slower one and the memoized
   reachability keeps the tree small. *)
let diamond len_a len_b =
  let places =
    pl 0 ~delay:0 "start"
    :: pl 100 ~delay:1 "join"
    :: (List.init len_a (fun i -> pl (1 + i) (Printf.sprintf "a%d" i))
       @ List.init len_b (fun i -> pl (50 + i) (Printf.sprintf "b%d" i)))
  in
  let chain base len tid_base =
    List.init (max 0 (len - 1)) (fun i ->
        tr (tid_base + i) "t" [ base + i ] [ base + i + 1 ])
  in
  let transitions =
    tr 1 "fork" [ 0 ] [ 1; 50 ]
    :: tr 2 "join" [ 1 + len_a - 1; 50 + len_b - 1 ] [ 100 ]
    :: (chain 1 len_a 10 @ chain 50 len_b 30)
  in
  Petri.make_exn ~places ~transitions ~initial:[ 0 ]

let test_diamond_times () =
  List.iter
    (fun (a, b) ->
      Alcotest.(check int)
        (Printf.sprintf "diamond %d/%d" a b)
        (max a b + 1)
        (Petri.execution_time (diamond a b)))
    [ (1, 1); (2, 5); (7, 3); (4, 4) ]

let test_nested_choice () =
  (* two consecutive choices: 4 paths; worst case = slowest combination *)
  let net =
    Petri.make_exn
      ~places:
        [ pl 0 ~delay:0 "s"; pl 1 ~delay:2 "a"; pl 2 ~delay:5 "b";
          pl 3 ~delay:1 "c"; pl 4 ~delay:7 "d" ]
      ~transitions:
        [ tr 1 "ta" [ 0 ] [ 1 ]; tr 2 "tb" [ 0 ] [ 2 ];
          tr 3 "tac" [ 1 ] [ 3 ]; tr 4 "tad" [ 1 ] [ 4 ];
          tr 5 "tbc" [ 2 ] [ 3 ]; tr 6 "tbd" [ 2 ] [ 4 ] ]
      ~initial:[ 0 ]
  in
  Alcotest.(check int) "worst path b->d" 12 (Petri.execution_time net)

let prop_chain_linear =
  QCheck.Test.make ~name:"chain time scales linearly" ~count:30
    QCheck.(pair (int_range 0 20) (int_range 1 4))
    (fun (n, d) -> Petri.execution_time (Petri.chain ~step_delay:d n) = n * d)

let prop_tree_nodes_chain =
  QCheck.Test.make ~name:"chain reachability tree is linear" ~count:20
    QCheck.(int_range 0 30)
    (fun n ->
      let path = Petri.critical_path (Petri.chain n) in
      path.Petri.tree_nodes = n + 1)

let () =
  Alcotest.run "hlts_petri"
    [
      ( "structure",
        [
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "final places" `Quick test_final_places;
        ] );
      ( "timing",
        [
          Alcotest.test_case "chain time" `Quick test_chain_time;
          Alcotest.test_case "chain step delay" `Quick test_chain_step_delay;
          Alcotest.test_case "chain path steps" `Quick test_chain_critical_path_steps;
          Alcotest.test_case "fork-join" `Quick test_fork_join;
          Alcotest.test_case "choice worst case" `Quick test_choice_worst_case;
          Alcotest.test_case "cycle bounded" `Quick test_cycle_bounded;
          Alcotest.test_case "dead net" `Quick test_dead_net_time;
          Alcotest.test_case "diamonds" `Quick test_diamond_times;
          Alcotest.test_case "nested choice" `Quick test_nested_choice;
          QCheck_alcotest.to_alcotest prop_chain_linear;
          QCheck_alcotest.to_alcotest prop_tree_nodes_chain;
        ] );
    ]
