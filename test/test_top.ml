(* Tests for Hlts_eval.Top — the heartbeat-file parser and terminal
   dashboard behind [hlts top]. The interesting contracts are the
   robustness ones: torn trailing lines are skipped (tailing a live file
   observes partial writes), missing files are clean errors, and the
   renderer works from whatever subset of fields a snapshot carries. *)

module Obs = Hlts_obs
module Top = Hlts_eval.Top

let contains ~needle hay =
  let nl = String.length needle and hl = String.length hay in
  let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
  go 0

(* A realistic heartbeat file: produced by the actual sink, so these
   tests also pin the sink → top format contract. *)
let heartbeat_lines () =
  let buf = Buffer.create 512 in
  let sink = Obs.heartbeat_sink ~interval_ms:0 (Buffer.add_string buf) in
  Obs.with_sink sink (fun () ->
      Obs.count "top.iters";
      Obs.gauge "top.depth" 3.0;
      Obs.count ~by:2 "top.iters");
  Buffer.contents buf

let write_file content =
  let file = Filename.temp_file "hlts_top_test" ".jsonl" in
  let oc = open_out_bin file in
  output_string oc content;
  close_out oc;
  at_exit (fun () -> try Sys.remove file with Sys_error _ -> ());
  file

(* --- parsing ------------------------------------------------------------- *)

let test_parse_line () =
  let line =
    {|{"hb":4,"t_s":1.5,"final":true,"res":{"rss_kb":2048},"counters":{"c":7},"gauges":{"g":0.5}}|}
  in
  (match Top.parse_line line with
  | Error e -> Alcotest.failf "good line rejected: %s" e
  | Ok hb ->
    Alcotest.(check int) "seq" 4 hb.Top.hb_seq;
    Alcotest.(check (float 0.0)) "t_s" 1.5 hb.Top.hb_t_s;
    Alcotest.(check bool) "final" true hb.Top.hb_final;
    Alcotest.(check (list (pair string (float 0.0)))) "res"
      [ ("rss_kb", 2048.0) ] hb.Top.hb_res;
    Alcotest.(check (list (pair string int))) "counters" [ ("c", 7) ]
      hb.Top.hb_counters;
    Alcotest.(check (list (pair string (float 0.0)))) "gauges"
      [ ("g", 0.5) ] hb.Top.hb_gauges);
  (match Top.parse_line "{\"t_s\":1.0}" with
  | Ok _ -> Alcotest.fail "line without hb accepted"
  | Error _ -> ());
  match Top.parse_line "{\"hb\":0,\"t_s\":" with
  | Ok _ -> Alcotest.fail "torn json accepted"
  | Error _ -> ()

let test_parse_sink_output () =
  let lines =
    List.filter (fun l -> l <> "")
      (String.split_on_char '\n' (heartbeat_lines ()))
  in
  Alcotest.(check bool) "sink produced snapshots" true (List.length lines >= 2);
  List.iteri
    (fun i l ->
      match Top.parse_line l with
      | Error e -> Alcotest.failf "sink line %d rejected: %s" i e
      | Ok hb -> Alcotest.(check int) "seq matches position" i hb.Top.hb_seq)
    lines

(* --- file reading -------------------------------------------------------- *)

let test_read_file_torn_tail () =
  let content = heartbeat_lines () in
  (* chop the last line's newline plus a few bytes: a torn write *)
  let torn = String.sub content 0 (String.length content - 5) in
  let file = write_file torn in
  (match Top.read_file file with
  | Error e -> Alcotest.failf "torn file fatal: %s" e
  | Ok (hbs, skipped) ->
    let full = List.length (String.split_on_char '\n' content) - 1 in
    Alcotest.(check int) "complete lines kept" (full - 1) (List.length hbs);
    Alcotest.(check int) "torn fragment counted" 1 skipped);
  (* a complete-but-garbage line is skipped, not fatal *)
  let file = write_file (content ^ "not json\n") in
  match Top.read_file file with
  | Error e -> Alcotest.failf "garbage line fatal: %s" e
  | Ok (hbs, skipped) ->
    Alcotest.(check bool) "snapshots survive" true (hbs <> []);
    Alcotest.(check int) "garbage counted" 1 skipped

let test_read_file_missing () =
  match Top.read_file "/nonexistent/heartbeat.jsonl" with
  | Ok _ -> Alcotest.fail "missing file did not error"
  | Error e -> Alcotest.(check bool) "error names the file" true
      (contains ~needle:"heartbeat.jsonl" e)

let test_read_lines_shared () =
  let check content want =
    match Top.read_lines (write_file content) with
    | Error e -> Alcotest.failf "read_lines failed: %s" e
    | Ok got ->
      Alcotest.(check (pair (list string) int)) (String.escaped content) want got
  in
  check "" ([], 0);
  check "a\n" ([ "a" ], 0);
  check "a\n\nb\n{\"c" ([ "a"; ""; "b" ], 1);
  (* [hlts report]'s reader: a garbage line and a torn tail both count *)
  (match Hlts_eval.Report.read_file (write_file "not json\n{\"j\":1,\"ev") with
  | Error e -> Alcotest.failf "report reader failed: %s" e
  | Ok r -> Alcotest.(check int) "skipped" 2 (Hlts_eval.Report.skipped r));
  match Hlts_eval.Report.read_file "/nonexistent/journal.jsonl" with
  | Ok _ -> Alcotest.fail "missing journal did not error"
  | Error e ->
    Alcotest.(check bool) "error names the file" true
      (contains ~needle:"journal.jsonl" e)

(* --- rendering ----------------------------------------------------------- *)

let test_once_renders () =
  let file = write_file (heartbeat_lines ()) in
  match Top.once ~file with
  | Error e -> Alcotest.failf "once failed: %s" e
  | Ok panel ->
    Alcotest.(check bool) "names the file" true (contains ~needle:file panel);
    Alcotest.(check bool) "final snapshot shown" true
      (contains ~needle:"FINISHED" panel);
    Alcotest.(check bool) "counter shown" true
      (contains ~needle:"top.iters" panel);
    Alcotest.(check bool) "gauge shown" true
      (contains ~needle:"top.depth" panel)

let test_once_empty_and_missing () =
  (match Top.once ~file:(write_file "") with
  | Ok _ -> Alcotest.fail "empty file rendered"
  | Error _ -> ());
  match Top.once ~file:"/nonexistent/hb.jsonl" with
  | Ok _ -> Alcotest.fail "missing file rendered"
  | Error _ -> ()

let test_follow_stops_on_final () =
  let file = write_file (heartbeat_lines ()) in
  let frames = ref [] in
  match
    Top.follow ~interval_ms:10 ~file (fun s -> frames := s :: !frames)
  with
  | Error e -> Alcotest.failf "follow failed: %s" e
  | Ok () ->
    (match !frames with
    | [ frame ] ->
      Alcotest.(check bool) "clear-screen prefix" true
        (String.length frame > 4 && String.sub frame 0 2 = "\027[");
      Alcotest.(check bool) "rendered the final snapshot" true
        (contains ~needle:"FINISHED" frame)
    | l -> Alcotest.failf "expected one frame, got %d" (List.length l))

let test_follow_frames_bound () =
  (* no final marker: strip it so follow only stops via ~frames *)
  let lines =
    List.filter
      (fun l -> l <> "" && not (contains ~needle:"\"final\"" l))
      (String.split_on_char '\n' (heartbeat_lines ()))
  in
  let file = write_file (String.concat "\n" lines ^ "\n") in
  let n = ref 0 in
  match Top.follow ~frames:3 ~interval_ms:10 ~file (fun _ -> incr n) with
  | Error e -> Alcotest.failf "follow failed: %s" e
  | Ok () -> Alcotest.(check int) "stopped at the frame bound" 3 !n

(* --- serve mode (access log) --------------------------------------------- *)

(* A realistic access log: the same line shapes [serve --access-log]
   writes — lifecycle markers bracketing one record per request. *)
let access_content =
  String.concat "\n"
    [
      {|{"t_s":0.001,"serve":"listening"}|};
      {|{"t_s":0.5,"trace":"-","op":"ping","digest":"-","verdict":"ok","bytes_out":64,"queue_s":0,"cache_s":0,"compute_s":0,"reply_s":0.0001,"total_s":0.0002}|};
      {|{"t_s":1.0,"trace":"00112233445566778899aabbccddeeff","op":"synth","digest":"abc","verdict":"miss","bytes_out":2048,"queue_s":0,"cache_s":0.001,"compute_s":0.2,"reply_s":0.001,"total_s":0.21}|};
      {|{"t_s":1.5,"trace":"-","op":"synth","digest":"abc","verdict":"hit","bytes_out":2048,"queue_s":0,"cache_s":0.0005,"compute_s":0,"reply_s":0.001,"total_s":0.002}|};
      {|{"t_s":2.0,"trace":"-","op":"atpg","digest":"def","verdict":"accepted","bytes_out":128,"queue_s":0,"cache_s":0,"compute_s":0,"reply_s":0.0001,"total_s":0.0003}|};
      {|{"t_s":2.5,"trace":"-","op":"atpg","digest":"def","verdict":"miss","async":true,"bytes_out":0,"queue_s":0.4,"cache_s":0.001,"compute_s":0.3,"reply_s":0,"total_s":0.701}|};
      {|{"t_s":3.0,"serve":"drained","final":true,"served":4}|};
      "";
    ]

let test_parse_access_line () =
  (match
     Top.parse_access_line
       {|{"t_s":1.0,"trace":"t","op":"synth","digest":"d","verdict":"miss","bytes_out":9,"queue_s":0,"cache_s":0.25,"compute_s":0.5,"reply_s":0.25,"total_s":1.0}|}
   with
  | Ok (Top.Request a) ->
    Alcotest.(check string) "op" "synth" a.Top.ac_op;
    Alcotest.(check string) "verdict" "miss" a.Top.ac_verdict;
    Alcotest.(check bool) "not async" false a.Top.ac_async;
    Alcotest.(check int) "bytes" 9 a.Top.ac_bytes_out;
    Alcotest.(check (float 0.0)) "compute wall" 0.5 a.Top.ac_compute_s;
    Alcotest.(check (float 0.0)) "total wall" 1.0 a.Top.ac_total_s
  | Ok (Top.Lifecycle _) -> Alcotest.fail "request parsed as lifecycle"
  | Error e -> Alcotest.failf "good record rejected: %s" e);
  (match Top.parse_access_line {|{"t_s":0.0,"serve":"drained","final":true}|}
   with
  | Ok (Top.Lifecycle { lc_event; lc_final }) ->
    Alcotest.(check string) "event" "drained" lc_event;
    Alcotest.(check bool) "final" true lc_final
  | Ok (Top.Request _) -> Alcotest.fail "lifecycle parsed as request"
  | Error e -> Alcotest.failf "lifecycle rejected: %s" e);
  (match Top.parse_access_line {|{"t_s":1.0,"op":"synth"}|} with
  | Ok _ -> Alcotest.fail "verdict-less line accepted"
  | Error _ -> ());
  match Top.parse_access_line {|{"t_s":1.0,"op":|} with
  | Ok _ -> Alcotest.fail "torn access json accepted"
  | Error _ -> ()

let test_read_access_torn_tail () =
  (* the drained marker's tail torn off mid-write: the reader must keep
     every complete record, count one skip, and report the daemon as
     still serving *)
  let torn = String.sub access_content 0 (String.length access_content - 12) in
  (match Top.read_access_file (write_file torn) with
  | Error e -> Alcotest.failf "torn access log fatal: %s" e
  | Ok (recs, final, skipped) ->
    Alcotest.(check int) "complete records kept" 5 (List.length recs);
    Alcotest.(check bool) "no final marker seen" false final;
    Alcotest.(check int) "torn fragment counted" 1 skipped);
  (* intact file: all records, final seen, nothing skipped *)
  (match Top.read_access_file (write_file access_content) with
  | Error e -> Alcotest.failf "access log fatal: %s" e
  | Ok (recs, final, skipped) ->
    Alcotest.(check int) "records" 5 (List.length recs);
    Alcotest.(check bool) "final" true final;
    Alcotest.(check int) "skipped" 0 skipped;
    let async = List.filter (fun a -> a.Top.ac_async) recs in
    Alcotest.(check int) "async execution record" 1 (List.length async));
  (* a complete-but-garbage line is skipped, not fatal *)
  match Top.read_access_file (write_file (access_content ^ "not json\n")) with
  | Error e -> Alcotest.failf "garbage line fatal: %s" e
  | Ok (recs, _, skipped) ->
    Alcotest.(check int) "records survive" 5 (List.length recs);
    Alcotest.(check int) "garbage counted" 1 skipped

let test_once_serve_renders () =
  match Top.once_serve ~file:(write_file access_content) with
  | Error e -> Alcotest.failf "once_serve failed: %s" e
  | Ok panel ->
    Alcotest.(check bool) "names the mode" true
      (contains ~needle:"hlts top --serve" panel);
    Alcotest.(check bool) "daemon stopped" true
      (contains ~needle:"STOPPED" panel);
    Alcotest.(check bool) "latency percentiles" true
      (contains ~needle:"p95" panel);
    Alcotest.(check bool) "hit rate" true
      (contains ~needle:"hit-rate 33%" panel);
    Alcotest.(check bool) "per-op table" true (contains ~needle:"synth" panel);
    Alcotest.(check bool) "busy rejects surfaced" true
      (contains ~needle:"busy rejects 0" panel)

let test_once_serve_empty () =
  (match Top.once_serve ~file:(write_file "") with
  | Ok _ -> Alcotest.fail "empty access log rendered"
  | Error _ -> ());
  match Top.once_serve ~file:"/nonexistent/access.log" with
  | Ok _ -> Alcotest.fail "missing access log rendered"
  | Error _ -> ()

let test_follow_serve_stops_on_final () =
  let frames = ref [] in
  match
    Top.follow_serve ~interval_ms:10 ~file:(write_file access_content)
      (fun s -> frames := s :: !frames)
  with
  | Error e -> Alcotest.failf "follow_serve failed: %s" e
  | Ok () ->
    (match !frames with
    | [ frame ] ->
      Alcotest.(check bool) "clear-screen prefix" true
        (String.length frame > 4 && String.sub frame 0 2 = "\027[");
      Alcotest.(check bool) "rendered the drained state" true
        (contains ~needle:"STOPPED" frame)
    | l -> Alcotest.failf "expected one frame, got %d" (List.length l))

let () =
  Alcotest.run "hlts_top"
    [
      ( "parse",
        [
          Alcotest.test_case "snapshot line" `Quick test_parse_line;
          Alcotest.test_case "sink output round-trips" `Quick
            test_parse_sink_output;
        ] );
      ( "files",
        [
          Alcotest.test_case "torn tail skipped" `Quick
            test_read_file_torn_tail;
          Alcotest.test_case "missing file is clean error" `Quick
            test_read_file_missing;
          Alcotest.test_case "one line reader" `Quick test_read_lines_shared;
        ] );
      ( "render",
        [
          Alcotest.test_case "once renders newest" `Quick test_once_renders;
          Alcotest.test_case "empty and missing error" `Quick
            test_once_empty_and_missing;
          Alcotest.test_case "follow stops on final" `Quick
            test_follow_stops_on_final;
          Alcotest.test_case "follow honors frame bound" `Quick
            test_follow_frames_bound;
        ] );
      ( "serve",
        [
          Alcotest.test_case "access line" `Quick test_parse_access_line;
          Alcotest.test_case "access torn tail skipped" `Quick
            test_read_access_torn_tail;
          Alcotest.test_case "serve panel renders" `Quick
            test_once_serve_renders;
          Alcotest.test_case "serve empty and missing error" `Quick
            test_once_serve_empty;
          Alcotest.test_case "follow_serve stops on final" `Quick
            test_follow_serve_stops_on_final;
        ] );
    ]
