(* Decision-journal tests: encode/decode round-trips, the canonical
   line predicate, and the headline contract — the canonical journal of
   a synthesis run is byte-identical at every worker count. *)

module Obs = Hlts_obs
module Journal = Hlts_obs.Journal
module Synth = Hlts_synth.Synth
module Benchmarks = Hlts_dfg.Benchmarks

(* --- encode/decode ------------------------------------------------------ *)

let sample_events =
  [
    Journal.Iter_begin { iteration = 3; pool = 17 };
    Journal.Candidate_scored
      { pair = Journal.Units (1, 2); delta_e = -1; delta_h = 0.125; sched_len = 9 };
    Journal.Candidate_scored
      {
        pair = Journal.Registers (0, 5);
        delta_e = 2;
        (* not representable in a short decimal: exercises the
           shortest-round-trip float rendering *)
        delta_h = 0.1;
        sched_len = 11;
      };
    Journal.Candidate_rejected
      { pair = Journal.Units (3, 4); reason = Journal.Infeasible };
    Journal.Candidate_rejected
      { pair = Journal.Registers (1, 2); reason = Journal.Over_budget };
    Journal.Candidate_rejected
      { pair = Journal.Units (0, 1); reason = Journal.Not_improving };
    Journal.Candidate_rejected
      { pair = Journal.Units (0, 2); reason = Journal.Not_selected };
    Journal.Merge_committed
      {
        description = "merge units add{N1} + add{N2}";
        reason = "cheapest acceptable of top-5 (rank 1)";
        delta_e = 0;
        delta_h = -0.25;
        cost = -0.25;
      };
    Journal.Reschedule { strategy = Journal.SR1; moved_ops = [] };
    Journal.Reschedule
      { strategy = Journal.SR2; moved_ops = [ (1, 2, 3); (4, 6, 5) ] };
    Journal.Testability_snapshot
      {
        seq_depth = 12.5;
        registers = 7;
        units = 3;
        sched_len = 10;
        area_mm2 = 1e-17;
      };
  ]

let test_roundtrip () =
  List.iter
    (fun ev ->
      match Journal.decode (Journal.encode ev) with
      | Ok ev' ->
        Alcotest.(check bool)
          (Obs.Json.to_string (Journal.encode ev))
          true (ev = ev')
      | Error e -> Alcotest.failf "decode failed: %s" e)
    sample_events

let test_roundtrip_via_text () =
  (* The wire form is text, so round-trip through the parser too:
     encode -> to_string -> of_string -> decode must be the identity,
     including float payloads. *)
  List.iter
    (fun ev ->
      let line = Obs.Json.to_string (Journal.encode ev) in
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "reparse failed: %s" e
      | Ok j -> (
        match Journal.decode j with
        | Ok ev' -> Alcotest.(check bool) line true (ev = ev')
        | Error e -> Alcotest.failf "decode failed: %s" e))
    sample_events

let test_decode_rejects_garbage () =
  let bad =
    [
      Obs.Json.Null;
      Obs.Json.Obj [ ("ev", Obs.Json.Str "no_such_event") ];
      Obs.Json.Obj [ ("ev", Obs.Json.Str "iter_begin") ] (* missing fields *);
    ]
  in
  List.iter
    (fun j ->
      match Journal.decode j with
      | Ok _ -> Alcotest.fail "decoded garbage"
      | Error _ -> ())
    bad

let test_is_decision_line () =
  let check expected line =
    Alcotest.(check bool) line expected (Journal.is_decision_line line)
  in
  check true "{\"j\":0,\"ev\":\"iter_begin\",\"iteration\":1,\"pool\":2}";
  check true "{\"j\":117}";
  check false "{\"ev\":\"begin\",\"name\":\"synth.run\"}";
  check false "{\"ev\":\"wspan\",\"worker\":0}";
  check false "";
  check false "{\"j\""

(* --- sink shape --------------------------------------------------------- *)

let journal_lines ~jobs dfg =
  let buf = Buffer.create 4096 in
  Obs.with_sink (Obs.journal_sink (Buffer.add_string buf)) (fun () ->
      ignore (Synth.run ~jobs dfg));
  String.split_on_char '\n' (Buffer.contents buf)
  |> List.filter (fun l -> l <> "")

let canonical ~jobs dfg =
  List.filter Journal.is_decision_line (journal_lines ~jobs dfg)

let test_sink_stamps_sequence () =
  let lines = canonical ~jobs:1 Benchmarks.ex in
  Alcotest.(check bool) "journal nonempty" true (lines <> []);
  List.iteri
    (fun i line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "line does not parse: %s" e
      | Ok j -> (
        (match Obs.Json.member "j" j with
        | Some (Obs.Json.Int n) -> Alcotest.(check int) "seq" i n
        | _ -> Alcotest.fail "missing j field");
        match Obs.Json.member "ts_us" j with
        | None -> ()
        | Some _ -> Alcotest.fail "decision line carries a timestamp"))
    lines

let test_decision_lines_decode () =
  List.iter
    (fun line ->
      match Obs.Json.of_string line with
      | Error e -> Alcotest.failf "parse: %s" e
      | Ok j -> (
        match Journal.decode j with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "decode %s: %s" line e))
    (canonical ~jobs:1 Benchmarks.tseng)

(* --- determinism across worker counts ----------------------------------- *)

let check_identical name dfg =
  let j1 = canonical ~jobs:1 dfg in
  let j4 = canonical ~jobs:4 dfg in
  Alcotest.(check (list string)) name j1 j4

let test_tseng_identical () =
  check_identical "tseng" Benchmarks.tseng

let test_random_identical () =
  for seed = 1 to 100 do
    let ops = 4 + (seed mod 17) in
    check_identical
      (Printf.sprintf "random seed %d ops %d" seed ops)
      (Benchmarks.random ~seed ~ops)
  done

(* --- report rendering --------------------------------------------------- *)

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let test_report_renders () =
  let lines = journal_lines ~jobs:1 Benchmarks.ex in
  let r = Hlts_eval.Report.parse lines in
  Alcotest.(check int) "no skipped lines" 0 (Hlts_eval.Report.skipped r);
  Alcotest.(check bool) "iterations counted" true
    (Hlts_eval.Report.iterations r > 0);
  let html = Hlts_eval.Report.to_html r in
  Alcotest.(check bool) "is a document" true
    (String.length html > 200 && String.sub html 0 15 = "<!DOCTYPE html>");
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains ~sub html))
    [
      "Per-phase time";
      "Merge trajectory";
      "Testability-balance evolution";
      "</html>";
    ]

let test_report_tolerates_garbage () =
  (* A journal truncated by a crash, with a half-written last line,
     must still render. *)
  let lines = journal_lines ~jobs:1 Benchmarks.ex @ [ "{\"j\":999,\"ev\":\"tru" ] in
  let r = Hlts_eval.Report.parse lines in
  Alcotest.(check int) "one skipped line" 1 (Hlts_eval.Report.skipped r);
  Alcotest.(check bool) "still renders" true
    (contains ~sub:"</html>" (Hlts_eval.Report.to_html r))

(* The phase table is the self-time fold of the begin/end lines: beta
   nested in alpha is charged to beta alone, and alpha keeps the rest. *)
let test_report_phase_self_times () =
  let lines =
    [
      {|{"ev":"begin","name":"outer","cat":"alpha","ts_us":0,"depth":0}|};
      {|{"ev":"begin","name":"inner","cat":"beta","ts_us":10,"depth":1}|};
      {|{"ev":"end","name":"inner","cat":"beta","ts_us":1250010,"dur_us":1250000,"depth":1,"args":{}}|};
      {|{"ev":"end","name":"outer","cat":"alpha","ts_us":4000000,"dur_us":4000000,"depth":0,"args":{}}|};
      {|{"ev":"begin","name":"tail","cat":"beta","ts_us":4000000,"depth":0}|};
      {|{"ev":"end","name":"tail","cat":"beta","ts_us":4500000,"dur_us":500000.5,"depth":0,"args":{}}|};
    ]
  in
  let r = Hlts_eval.Report.parse lines in
  Alcotest.(check int) "no skipped lines" 0 (Hlts_eval.Report.skipped r);
  let html = Hlts_eval.Report.to_html r in
  List.iter
    (fun sub -> Alcotest.(check bool) sub true (contains ~sub html))
    [
      {|<tr><td class="l">alpha</td><td>2.750 s</td><td>61.1%</td></tr>|};
      {|<tr><td class="l">beta</td><td>1.750 s</td><td>38.9%</td></tr>|};
      {|<tr><th class="l">total</th><th>4.500 s</th>|};
    ]

let () =
  Alcotest.run "journal"
    [
      ( "codec",
        [
          Alcotest.test_case "encode/decode round-trip" `Quick test_roundtrip;
          Alcotest.test_case "round-trip via rendered text" `Quick
            test_roundtrip_via_text;
          Alcotest.test_case "decode rejects garbage" `Quick
            test_decode_rejects_garbage;
          Alcotest.test_case "is_decision_line" `Quick test_is_decision_line;
        ] );
      ( "sink",
        [
          Alcotest.test_case "sequence numbers, no timestamps" `Quick
            test_sink_stamps_sequence;
          Alcotest.test_case "every decision line decodes" `Quick
            test_decision_lines_decode;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "tseng journal identical j1 vs j4" `Quick
            test_tseng_identical;
          Alcotest.test_case "100 random DFGs identical j1 vs j4" `Quick
            test_random_identical;
        ] );
      ( "report",
        [
          Alcotest.test_case "renders a full report" `Quick test_report_renders;
          Alcotest.test_case "tolerates truncated journals" `Quick
            test_report_tolerates_garbage;
          Alcotest.test_case "phase table self times" `Quick
            test_report_phase_self_times;
        ] );
    ]
