(* The benchmark at tiny scale: every workload runs its real code paths,
   must print every metric BENCHMARK.json names with its unit, and must
   pass every correctness check, traced or not (traced runs include the
   check that layer self times sum to the traced wall within 2%). *)

open Yardstick
module Json = Hlts_obs.Json

let bench_json =
  lazy
    (match
       Json.of_string (String.concat "\n" (Measure.read_lines "../BENCHMARK.json"))
     with
    | Ok j -> j
    | Error e -> Alcotest.fail ("BENCHMARK.json: " ^ e))

let listed key =
  match Json.member key (Lazy.force bench_json) with
  | Some (Json.List ms) ->
    let f = Measure.json_str in
    List.map (fun m -> (f "name" m, f "unit" m, f "better" m)) ms
  | _ -> Alcotest.fail ("BENCHMARK.json has no " ^ key)

let ours catalog =
  List.map
    (fun m ->
      ( m.Measure.name,
        m.Measure.unit,
        match m.Measure.better with Measure.Lower -> "lower" | Higher -> "higher" ))
    catalog

let triple = Alcotest.(list (triple string string string))

let test_catalog () =
  Alcotest.check triple "end_to_end" (listed "end_to_end") (ours Measure.end_to_end);
  Alcotest.check triple "per_layer" (listed "per_layer") (ours Measure.per_layer);
  let workloads =
    match Json.member "workloads" (Lazy.force bench_json) with
    | Some (Json.List ws) -> List.map (Measure.json_str "name") ws
    | _ -> []
  in
  Alcotest.(check (list string))
    "workloads" workloads
    (List.map (fun w -> w.Run.name) Run.all)

let check_result ~traced (r : Measure.result) =
  Alcotest.(check (list string)) "no failed check" [] r.Measure.failures;
  Alcotest.(check bool) "attempted" true (r.Measure.attempted > 0);
  let metrics =
    Option.value ~default:Json.Null
      (Json.member "metrics" (Measure.result_json ~traced r))
  in
  List.iter
    (fun (name, unit, _) ->
      match Json.member name metrics with
      | None -> Alcotest.failf "%s is not printed" name
      | Some m -> (
        Alcotest.(check string) (name ^ " unit") unit (Measure.json_str "unit" m);
        match Json.member "value" m with
        | Some (Json.Float v) when traced || v > 0.0 -> ()
        | Some (Json.Int _) when traced -> ()
        | _ -> Alcotest.failf "%s has no positive value" name))
    (listed (if traced then "per_layer" else "end_to_end"))

let run_tiny w ~traced ~trace_out =
  w.Run.run ~scale:Measure.Tiny ~seed:1 ~seconds:0.2 ~traced ~trace_out ()

let test_workload w () =
  check_result ~traced:false (run_tiny w ~traced:false ~trace_out:None);
  let buf = Buffer.create 4096 in
  check_result ~traced:true
    (run_tiny w ~traced:true ~trace_out:(Some (Buffer.add_string buf)));
  match Json.of_string (Buffer.contents buf) with
  | Ok j when Json.member "traceEvents" j <> None -> ()
  | _ -> Alcotest.fail "the traced run wrote no Chrome trace"

let test_wrong_coverage () =
  let expected =
    [ (("ex", Hlts_synth.Flows.Ours, 4), "98.87") ]
  in
  let r =
    Inproc.tables ~expected ~scale:Measure.Tiny ~seed:1 ~seconds:0.1
      ~traced:false ~trace_out:None ()
  in
  Alcotest.(check (list string))
    "the coverage check fails"
    [ "ex/Ours@4: coverage 98.86%, expected 98.87%" ]
    r.Measure.failures

(* statistics.quantiles([1..10], n=4) = [2.75, 5.5, 8.25] *)
let test_quartiles () =
  let xs = List.init 10 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (pair (float 1e-9) (float 1e-9)))
    "quartiles" (2.75, 8.25) (Measure.quartiles xs);
  Alcotest.(check (float 1e-9)) "median" 5.5 (Measure.median xs)

let test_verdicts () =
  let v = Compare.verdict ~better:Measure.Lower in
  let check name want got = Alcotest.(check string) name want got in
  let a = [ 10.0; 10.2; 9.9 ] in
  check "same" "unchanged" (v ~bound:(Some 0.1) a [ 10.1; 9.95; 10.05 ]);
  check "gain from 3 pairs" "unchanged" (v ~bound:(Some 0.1) a [ 8.0; 8.1; 7.9 ]);
  check "loss" "worse" (v ~bound:(Some 0.1) a [ 12.0; 12.1; 11.9 ]);
  check "noisy" "unresolved" (v ~bound:(Some 0.1) a [ 8.0; 12.5; 10.4 ]);
  check "noisy, every B run better" "unchanged"
    (v ~bound:(Some 0.1) [ 10.0; 12.5; 10.4 ] [ 7.0; 9.5; 8.0 ]);
  check "no bound, 3 pairs" "unchanged" (v ~bound:None a [ 12.0; 12.1; 11.9 ]);
  let ten f = List.init 10 (fun i -> f (float_of_int (i mod 3))) in
  let a = ten (fun d -> 10.0 +. (0.1 *. d)) in
  check "gain from 10 pairs" "improved" (v ~bound:(Some 0.1) a (ten (fun d -> 8.0 +. (0.1 *. d))));
  check "no bound, 10 pairs" "worse" (v ~bound:None a (ten (fun d -> 12.0 +. (0.1 *. d))))

let () =
  Served.serve_if_asked ();
  Alcotest.run "yardstick"
    [
      ( "benchmark",
        [
          Alcotest.test_case "catalog matches BENCHMARK.json" `Quick test_catalog;
          Alcotest.test_case "wrong expected coverage fails" `Quick
            test_wrong_coverage;
          Alcotest.test_case "quartiles as Python" `Quick test_quartiles;
          Alcotest.test_case "compare verdicts" `Quick test_verdicts;
        ]
        @ List.map
            (fun w -> Alcotest.test_case w.Run.name `Quick (test_workload w))
            Run.all );
    ]
