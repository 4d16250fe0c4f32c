(* Command-line driver for the high-level test synthesis system. *)

open Cmdliner
module Flows = Hlts_synth.Flows
module Eval = Hlts_eval.Eval
module Render = Hlts_eval.Render
module Experiments = Hlts_eval.Experiments
module Obs = Hlts_obs

let find_bench = Hlts_dfg.Benchmarks.find_result

let find_approach name =
  match Flows.approach_of_string name with
  | Some a -> Ok a
  | None ->
    Error
      (Printf.sprintf "unknown approach %S (camad | approach1 | approach2 | ours)"
         name)

(* --- common options --- *)

let bench_arg =
  let doc = "Benchmark name (ex, dct, diffeq, ewf, paulin, tseng, toy)." in
  Arg.(value & opt string "diffeq" & info [ "b"; "bench" ] ~docv:"NAME" ~doc)

let approach_arg =
  let doc = "Synthesis flow: camad, approach1, approach2 or ours." in
  Arg.(value & opt string "ours" & info [ "a"; "approach" ] ~docv:"FLOW" ~doc)

let bits_arg =
  let doc = "Data-path bit width." in
  Arg.(value & opt int 8 & info [ "w"; "bits" ] ~docv:"BITS" ~doc)

let seed_arg =
  let doc = "ATPG random seed." in
  Arg.(value & opt int 1 & info [ "seed" ] ~docv:"SEED" ~doc)

let atpg_config seed = { Hlts_atpg.Atpg.default_config with Hlts_atpg.Atpg.seed }

(* --- observability options --- *)

let trace_arg =
  let doc =
    "Write a Chrome trace_event file to $(docv); load it in \
     chrome://tracing or Perfetto to see the synthesis timeline."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let stats_arg =
  let doc = "Print per-phase timing, counters and histograms after the run." in
  Arg.(value & flag & info [ "stats" ] ~doc)

let journal_arg =
  let doc =
    "Write the decision journal to $(docv): decision lines \
     (byte-identical for every --jobs count) plus every timed event, \
     one JSON object per line. Render it with $(b,hlts report)."
  in
  Arg.(value & opt (some string) None & info [ "journal" ] ~docv:"FILE" ~doc)

let metrics_arg =
  let doc =
    "After the run, write a Prometheus text-exposition snapshot \
     (counters, gauges, histogram summaries, per-phase self time and \
     process resources) to $(docv)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let heartbeat_arg =
  let doc =
    "Append one JSON progress snapshot per cadence tick to $(docv) \
     while the run executes; watch it live with $(b,hlts top --follow)."
  in
  Arg.(value & opt (some string) None & info [ "heartbeat" ] ~docv:"FILE" ~doc)

let heartbeat_ms_arg =
  let doc = "Heartbeat snapshot cadence in milliseconds (0 = every event)." in
  Arg.(value & opt int 100 & info [ "heartbeat-ms" ] ~docv:"MS" ~doc)

(* Installs the requested sinks around [f]; file sinks are flushed and
   closed on the way out — [Fun.protect] runs the closers even when [f]
   raises mid-span, so trace/journal files are complete documents after
   a crash — and the summary (if any) is printed last. *)
let with_obs ~stats ~trace ?(journal = None) ?(metrics = None)
    ?(heartbeat = None) ?(heartbeat_ms = 100) f =
  let installed = ref [] and closers = ref [] in
  let install sink =
    Obs.add_sink sink;
    installed := sink :: !installed
  in
  let open_file make path =
    let oc = open_out path in
    let sink = make (output_string oc) in
    closers := (fun () -> sink.Obs.flush (); close_out oc) :: !closers;
    install sink
  in
  let summary =
    if stats then begin
      let s = Obs.Summary.create () in
      install (Obs.Summary.sink s);
      Some s
    end
    else None
  in
  (* The metrics snapshot aggregates into its own summary so --metrics
     works with or without --stats; the exposition is rendered once on
     the way out. The file is opened up front so an unwritable path
     fails before the run, not after it. *)
  let metrics_summary =
    Option.map
      (fun path ->
        let oc = open_out path in
        let s = Obs.Summary.create () in
        install (Obs.Summary.sink s);
        (oc, s))
      metrics
  in
  Option.iter
    (fun path ->
      let oc = open_out path in
      (* flushed per snapshot so a concurrent [hlts top --follow] sees
         each line as soon as it is written *)
      let sink =
        Obs.heartbeat_sink ~interval_ms:heartbeat_ms (fun s ->
            output_string oc s;
            flush oc)
      in
      closers := (fun () -> sink.Obs.flush (); close_out oc) :: !closers;
      install sink)
    heartbeat;
  Option.iter (open_file Obs.chrome_sink) trace;
  Option.iter (open_file Obs.journal_sink) journal;
  Fun.protect
    ~finally:(fun () ->
      List.iter (fun close -> close ()) !closers;
      List.iter Obs.remove_sink !installed;
      Option.iter
        (fun (oc, s) ->
          Fun.protect
            ~finally:(fun () -> close_out oc)
            (fun () -> output_string oc (Obs.Metrics.expose s)))
        metrics_summary;
      Option.iter (fun s -> Format.printf "%a@." Obs.Summary.pp s) summary)
    f

(* Stamps what was run into the event stream so traces and reports are
   self-describing. An [Instant], not a journal decision: the jobs count
   may differ between runs whose decisions must stay byte-identical. *)
let run_meta ~bench ~approach ~bits ?jobs () =
  if Obs.enabled () then
    Obs.instant ~cat:"meta" "run.meta"
      ~args:
        ([
           ("bench", Obs.Str bench);
           ("approach", Obs.Str approach);
           ("bits", Obs.Int bits);
         ]
        @ (match jobs with Some j -> [ ("jobs", Obs.Int j) ] | None -> [])
        @ [ ("ocaml", Obs.Str Sys.ocaml_version) ])

let with_errors f =
  match f () with
  | Ok () -> 0
  | Error msg ->
    Printf.eprintf "error: %s\n" msg;
    1
  | exception Sys_error msg ->
    (* an unopenable --metrics/--heartbeat/--trace/... path: a user
       error, reported like the report/top missing-file case *)
    Printf.eprintf "error: %s\n" msg;
    1
  | exception Invalid_argument msg ->
    (* a refusal with its own one-line message, e.g. a malformed
       HLTS_DOMAINS — printed bare, without the exception wrapper *)
    Printf.eprintf "error: %s\n" msg;
    125
  | exception e ->
    (* [with_obs]'s [Fun.protect] has already flushed and closed any
       file sinks by the time the exception reaches here, so partial
       runs still leave well-formed trace/journal documents behind. *)
    Printf.eprintf "error: %s\n" (Printexc.to_string e);
    125

let ( let* ) = Result.bind

(* --- subcommands --- *)

let list_cmd =
  let run () =
    List.iter
      (fun (name, d) ->
        Printf.printf "%-8s %2d ops, %d inputs, %d outputs, chain %d\n" name
          (List.length d.Hlts_dfg.Dfg.ops)
          (List.length d.Hlts_dfg.Dfg.inputs)
          (List.length d.Hlts_dfg.Dfg.outputs)
          (Hlts_dfg.Dfg.longest_chain d))
      Hlts_dfg.Benchmarks.all;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List the bundled benchmark designs.")
    Term.(const run $ const ())

let synth_cmd =
  let jobs_arg =
    let doc =
      "Evaluate merge candidates on $(docv) pooled workers (default: \
       the HLTS_JOBS environment variable, else 1). The synthesized \
       design and every printed number are bit-identical for every job \
       count; only wall-clock time changes."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run bench approach bits jobs stats trace journal metrics
      heartbeat heartbeat_ms =
    with_errors (fun () ->
        let* d = find_bench bench in
        let* a = find_approach approach in
        with_obs ~stats ~trace ~journal ~metrics ~heartbeat ~heartbeat_ms
          (fun () ->
            run_meta ~bench ~approach ~bits ?jobs ();
            let o = Eval.outcome ?jobs a d ~bits in
            Render.schedule_figure Format.std_formatter d o;
            let stats = Hlts_etpn.Etpn.stats o.Flows.etpn in
            Printf.printf
              "registers: %d   units: %d   mux slices: %d   area: %.3f mm2\n"
              stats.Hlts_etpn.Etpn.n_registers stats.Hlts_etpn.Etpn.n_fus
              stats.Hlts_etpn.Etpn.n_mux_slices
              (Hlts_synth.State.area o.Flows.state ~bits);
            Ok ()))
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:"Synthesize a benchmark and print its schedule and allocation.")
    Term.(const run $ bench_arg $ approach_arg $ bits_arg $ jobs_arg
          $ stats_arg $ trace_arg $ journal_arg $ metrics_arg
          $ heartbeat_arg $ heartbeat_ms_arg)

let testability_cmd =
  let run bench approach bits =
    with_errors (fun () ->
        let* d = find_bench bench in
        let* a = find_approach approach in
        let o = Eval.outcome a d ~bits in
        let t = Hlts_synth.State.analysis o.Flows.state in
        Printf.printf "register testability measures (%s, %s):\n" bench approach;
        List.iter
          (fun (rid, m) ->
            Format.printf "  R%-3d %a@." rid
              Hlts_testability.Testability.pp_measures m)
          (Hlts_testability.Testability.register_measures t);
        Printf.printf "unit testability measures:\n";
        List.iter
          (fun (fid, m) ->
            Format.printf "  U%-3d %a@." fid
              Hlts_testability.Testability.pp_measures m)
          (Hlts_testability.Testability.fu_measures t);
        Printf.printf "sequential depth metric: %.2f\n"
          (Hlts_testability.Testability.seq_depth_total t);
        Ok ())
  in
  Cmd.v
    (Cmd.info "testability"
       ~doc:"Print CC/SC/CO/SO measures of a synthesized data path.")
    Term.(const run $ bench_arg $ approach_arg $ bits_arg)

let atpg_cmd =
  let collapse_gates_arg =
    let doc =
      "Also collapse controlling-value gate-input faults (s-a-0 on an \
       AND input onto its output, etc.); off by default so the paper's \
       table numbers are unchanged."
    in
    Arg.(value & flag & info [ "collapse-gates" ] ~doc)
  in
  let jobs_arg =
    let doc =
      "Fan PPSFP fault-word batches out over $(docv) pooled workers; \
       the results (and digest) are byte-identical for every job count."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let run bench approach bits seed collapse_gates jobs stats trace journal
      metrics heartbeat heartbeat_ms =
    with_errors (fun () ->
        let* d = find_bench bench in
        let* a = find_approach approach in
        with_obs ~stats ~trace ~journal ~metrics ~heartbeat ~heartbeat_ms
          (fun () ->
            run_meta ~bench ~approach ~bits ();
            let atpg =
              { (atpg_config seed) with
                Hlts_atpg.Atpg.collapse_gate_inputs = collapse_gates }
            in
            let params = Eval.params_for_bits bits in
            let row = Eval.evaluate ~params ~atpg ~jobs a d ~bits in
            let table = Hlts_synth.Synth.default_params in
            Printf.printf
              "%s / %s / %d bit (%d job%s):\n\
              \  synthesis: alpha=%g beta=%g at %d bit; the paper tables use \
               Synth.default_params (alpha=%g beta=%g) at %d-bit structure\n\
              \  gates: %d   fault coverage: %.2f%%   tg effort: %d (%.2fs)\n\
              \  random phase: %.3fs   det phase: %.3fs\n\
              \  test cycles: %d   area: %.3f mm2   seq depth: %.1f\n\
              \  detect digest: %s\n"
              bench
              (Flows.approach_name a)
              bits jobs
              (if jobs = 1 then "" else "s")
              params.Hlts_synth.Synth.alpha params.Hlts_synth.Synth.beta
              params.Hlts_synth.Synth.bits table.Hlts_synth.Synth.alpha
              table.Hlts_synth.Synth.beta table.Hlts_synth.Synth.bits
              row.Eval.gate_count row.Eval.fault_coverage_pct
              row.Eval.tg_effort row.Eval.tg_seconds
              row.Eval.tg_random_seconds row.Eval.tg_det_seconds
              row.Eval.test_cycles
              row.Eval.area_mm2 row.Eval.seq_depth row.Eval.detect_digest;
            Ok ()))
  in
  Cmd.v
    (Cmd.info "atpg" ~doc:"Run the full synthesis + test-generation pipeline.")
    Term.(const run $ bench_arg $ approach_arg $ bits_arg $ seed_arg
          $ collapse_gates_arg $ jobs_arg $ stats_arg
          $ trace_arg $ journal_arg $ metrics_arg $ heartbeat_arg
          $ heartbeat_ms_arg)

let table_cmd =
  let which =
    let doc = "Table to regenerate: 1 (Ex), 2 (Dct), 3 (Diffeq) or extra." in
    Arg.(value & pos 0 string "1" & info [] ~docv:"TABLE" ~doc)
  in
  let jobs_arg =
    let doc =
      "Fan the table's ATPG cells out over $(docv) pooled workers \
       (default: the HLTS_JOBS environment variable, else 1). The \
       output is byte-identical for every job count."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let no_time_arg =
    let doc =
      "Drop the wall-clock column (the only non-deterministic one), so \
       two runs of the same table can be byte-compared."
    in
    Arg.(value & flag & info [ "no-time" ] ~doc)
  in
  let run which seed jobs no_time =
    with_errors (fun () ->
        let atpg = atpg_config seed in
        let with_time = not no_time in
        match which with
        | "1" ->
          Render.table Format.std_formatter ~with_time
            ~title:"Table 1: area-optimized Ex benchmark"
            (Experiments.table1 ~atpg ?jobs ());
          Ok ()
        | "2" ->
          Render.table Format.std_formatter ~with_area:true ~with_time
            ~title:"Table 2: area-optimized Dct benchmark"
            (Experiments.table2 ~atpg ?jobs ());
          Ok ()
        | "3" ->
          Render.table Format.std_formatter ~with_area:true ~with_time
            ~title:"Table 3: area-optimized Diffeq benchmark"
            (Experiments.table3 ~atpg ?jobs ());
          Ok ()
        | "extra" ->
          List.iter
            (fun (name, rows) ->
              Render.table Format.std_formatter ~with_area:true ~with_time
                ~title:
                  (Printf.sprintf "Extra: %s benchmark at 8 bit (paper §5)"
                     name)
                rows)
            (Experiments.extra_rows ~atpg ?jobs ());
          Ok ()
        | other -> Error (Printf.sprintf "unknown table %S" other))
  in
  Cmd.v
    (Cmd.info "table" ~doc:"Regenerate a table of the paper's evaluation.")
    Term.(const run $ which $ seed_arg $ jobs_arg $ no_time_arg)

let figure_cmd =
  let which =
    let doc = "Figure: 1 (SR1/SR2 example), 2 (Ex schedule), 3 (Dct+Diffeq)." in
    Arg.(value & pos 0 string "2" & info [] ~docv:"FIGURE" ~doc)
  in
  let run which =
    with_errors (fun () ->
        let params =
          { Hlts_synth.Synth.default_params with Hlts_synth.Synth.bits = 8 }
        in
        let show d =
          Render.schedule_figure Format.std_formatter d
            (Eval.outcome ~params Flows.Ours d ~bits:8)
        in
        match which with
        | "1" -> Render.figure1 Format.std_formatter; Ok ()
        | "2" -> show Hlts_dfg.Benchmarks.ex; Ok ()
        | "3" ->
          show Hlts_dfg.Benchmarks.dct;
          show Hlts_dfg.Benchmarks.diffeq;
          Ok ()
        | other -> Error (Printf.sprintf "unknown figure %S" other))
  in
  Cmd.v
    (Cmd.info "figure" ~doc:"Regenerate a figure of the paper.")
    Term.(const run $ which)

let ablation_cmd =
  let which =
    let doc = "Ablation: params (k/alpha/beta sweep), balance or testpoints." in
    Arg.(value & pos 0 string "params" & info [] ~docv:"ABLATION" ~doc)
  in
  let run which seed =
    with_errors (fun () ->
        let atpg = atpg_config seed in
        match which with
        | "params" ->
          Printf.printf "parameter sweep of Ours on Ex at 8 bit:\n";
          List.iter
            (fun ((k, alpha, beta), row) ->
              Printf.printf
                "  k=%d a=%4.1f b=%4.1f: cov=%6.2f%%  area=%.3f  steps=%d  regs=%d  units=%d\n"
                k alpha beta row.Eval.fault_coverage_pct row.Eval.area_mm2
                row.Eval.schedule_length row.Eval.n_registers row.Eval.n_fus)
            (Experiments.ablation_params ~atpg ());
          Ok ()
        | "balance" ->
          Printf.printf "balance vs connectivity selection at 8 bit:\n";
          List.iter
            (fun (label, row) ->
              Printf.printf
                "  %-20s cov=%6.2f%%  seq-depth=%5.1f  mux=%2d  area=%.3f\n"
                label row.Eval.fault_coverage_pct row.Eval.seq_depth
                row.Eval.n_mux row.Eval.area_mm2)
            (Experiments.ablation_balance ~atpg ());
          Ok ()
        | "testpoints" ->
          Printf.printf
            "CAMAD designs without/with 2 observation points (8 bit):\n";
          List.iter
            (fun (name, base, tapped) ->
              Printf.printf "  %-7s cov %6.2f%% -> %6.2f%%\n" name
                base.Eval.fault_coverage_pct tapped.Eval.fault_coverage_pct)
            (Experiments.test_points ~atpg ());
          Ok ()
        | other -> Error (Printf.sprintf "unknown ablation %S" other))
  in
  Cmd.v
    (Cmd.info "ablation" ~doc:"Run a design-choice ablation (DESIGN.md X2/X3).")
    Term.(const run $ which $ seed_arg)

let verify_cmd =
  let trials_arg =
    let doc = "Random input vectors to co-simulate." in
    Arg.(value & opt int 20 & info [ "trials" ] ~docv:"N" ~doc)
  in
  let run bench approach bits trials seed =
    with_errors (fun () ->
        let* d = find_bench bench in
        let* a = find_approach approach in
        let o = Eval.outcome a d ~bits in
        match Hlts_verify.Verify.datapath ~seed ~trials o.Flows.etpn ~bits with
        | Ok () ->
          Printf.printf
            "%s/%s at %d bit: %d random vectors, gate-level outputs match \
             the behavioral reference.\n"
            bench (Flows.approach_name a) bits trials;
          Ok ()
        | Error msg -> Error msg)
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Co-simulate the synthesized gate-level data path against the \
          behavioral reference (semantics preservation).")
    Term.(const run $ bench_arg $ approach_arg $ bits_arg $ trials_arg $ seed_arg)

let dot_cmd =
  let run bench approach bits =
    with_errors (fun () ->
        let* d = find_bench bench in
        let* a = find_approach approach in
        let o = Eval.outcome a d ~bits in
        print_string (Hlts_etpn.Etpn.to_dot o.Flows.etpn);
        Ok ())
  in
  Cmd.v
    (Cmd.info "dot" ~doc:"Dump the synthesized data path as Graphviz.")
    Term.(const run $ bench_arg $ approach_arg $ bits_arg)

let compile_cmd =
  let file =
    let doc = "Behavioral source file to compile and synthesize." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let run file approach bits =
    with_errors (fun () ->
        let ic = open_in file in
        let len = in_channel_length ic in
        let src = really_input_string ic len in
        close_in ic;
        let* d = Hlts_lang.Lang.compile src in
        let* a = find_approach approach in
        let o = Eval.outcome a d ~bits in
        Render.schedule_figure Format.std_formatter d o;
        Ok ())
  in
  Cmd.v
    (Cmd.info "compile"
       ~doc:"Compile a behavioral description and synthesize it.")
    Term.(const run $ file $ approach_arg $ bits_arg)

let profile_cmd =
  let run bench approach bits seed trace journal =
    with_errors (fun () ->
        let* d = find_bench bench in
        let* a = find_approach approach in
        let summary = Obs.Summary.create () in
        with_obs ~stats:false ~trace ~journal (fun () ->
            Obs.with_sink (Obs.Summary.sink summary) (fun () ->
                run_meta ~bench ~approach ~bits ();
                (* The enclosing span accounts any un-instrumented time
                   to "other", so the phase breakdown sums to the total. *)
                let row =
                  Obs.span ~cat:"other" "profile" (fun _ ->
                      Eval.evaluate ~atpg:(atpg_config seed) a d ~bits)
                in
                Printf.printf
                  "profile of %s / %s / %d bit (seed %d):\n\
                  \  steps: %d   registers: %d   units: %d   gates: %d\n\
                  \  coverage: %.2f%%   area: %.3f mm2\n\n"
                  bench
                  (Flows.approach_name a)
                  bits seed row.Eval.schedule_length row.Eval.n_registers
                  row.Eval.n_fus row.Eval.gate_count
                  row.Eval.fault_coverage_pct row.Eval.area_mm2;
                Format.printf "%a@." Obs.Summary.pp summary;
                Ok ())))
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:
         "Run the full pipeline and print a per-phase time and counter \
          breakdown (testability, candidates, merge, reschedule, atpg, ...).")
    Term.(const run $ bench_arg $ approach_arg $ bits_arg $ seed_arg
          $ trace_arg $ journal_arg)

let report_cmd =
  let journal_file =
    (* [Arg.string], not [Arg.file]: a missing path must surface as our
       own one-line error with exit code 1, not cmdliner's CLI error. *)
    let doc =
      "Decision-journal file written by --journal (or, with --serve, an \
       access-log file written by $(b,hlts serve --access-log))."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"JOURNAL" ~doc)
  in
  let out_arg =
    let doc = "Output HTML file." in
    Arg.(value & opt string "report.html" & info [ "o"; "output" ] ~docv:"FILE" ~doc)
  in
  let serve_arg =
    let doc =
      "Treat $(i,JOURNAL) as a $(b,serve --access-log) file and render \
       the service report: latency timeline, throughput and hit-rate \
       charts, per-op percentiles."
    in
    Arg.(value & flag & info [ "serve" ] ~doc)
  in
  let write_html out html =
    let oc = open_out out in
    Fun.protect
      ~finally:(fun () -> close_out oc)
      (fun () -> output_string oc html)
  in
  let run journal out serve =
    with_errors (fun () ->
        if serve then
          let* accs, final, skipped =
            Hlts_eval.Top.read_access_file journal
          in
          if accs = [] then
            Error
              (Printf.sprintf
                 "%s contains no complete access-log record; was it \
                  written with serve --access-log?"
                 journal)
          else begin
            write_html out
              (Hlts_eval.Report.serve_html ~file:journal ~final ~skipped accs);
            Printf.printf "%s: %d request record(s)%s -> %s\n" journal
              (List.length accs)
              (match skipped with
              | 0 -> ""
              | n -> Printf.sprintf " (%d lines skipped)" n)
              out;
            Ok ()
          end
        else
          let* report = Hlts_eval.Report.read_file journal in
          if Hlts_eval.Report.decisions report = 0 then
            Error
              (Printf.sprintf
                 "%s contains no journal decisions; was it written with \
                  --journal?"
                 journal)
          else begin
            write_html out (Hlts_eval.Report.to_html report);
            Printf.printf
              "%s: %d decisions over %d iterations%s -> %s\n" journal
              (Hlts_eval.Report.decisions report)
              (Hlts_eval.Report.iterations report)
              (match Hlts_eval.Report.skipped report with
              | 0 -> ""
              | n -> Printf.sprintf " (%d lines skipped)" n)
              out;
            Ok ()
          end)
  in
  Cmd.v
    (Cmd.info "report"
       ~doc:
         "Render a decision-journal file as a self-contained HTML report: \
          per-phase times, merge trajectory, testability-balance evolution \
          and pool utilization. With --serve, render an access-log file \
          as a service report instead.")
    Term.(const run $ journal_file $ out_arg $ serve_arg)

let top_cmd =
  let hb_file =
    let doc =
      "Heartbeat file written by --heartbeat (or, with --serve, an \
       access-log file written by $(b,hlts serve --access-log))."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let follow_arg =
    let doc =
      "Keep re-reading the file and redrawing in place until the \
       producer writes its final snapshot (or --frames is reached)."
    in
    Arg.(value & flag & info [ "f"; "follow" ] ~doc)
  in
  let frames_arg =
    let doc = "With --follow, stop after $(docv) rendered frames (0 = until final)." in
    Arg.(value & opt int 0 & info [ "frames" ] ~docv:"N" ~doc)
  in
  let interval_arg =
    let doc = "With --follow, redraw every $(docv) milliseconds." in
    Arg.(value & opt int 250 & info [ "interval-ms" ] ~docv:"MS" ~doc)
  in
  let serve_arg =
    let doc =
      "Treat $(i,FILE) as a $(b,serve --access-log) file and render the \
       service panel: request rate, latency percentiles, cache hit \
       rate, queue depth and busy rejects."
    in
    Arg.(value & flag & info [ "serve" ] ~doc)
  in
  let run file follow frames interval_ms serve =
    with_errors (fun () ->
        let write s =
          print_string s;
          flush stdout
        in
        match (serve, follow) with
        | true, true ->
          Hlts_eval.Top.follow_serve ~frames ~interval_ms ~file write
        | true, false ->
          let* panel = Hlts_eval.Top.once_serve ~file in
          print_string panel;
          Ok ()
        | false, true ->
          Hlts_eval.Top.follow ~frames ~interval_ms ~file write
        | false, false ->
          let* panel = Hlts_eval.Top.once ~file in
          print_string panel;
          Ok ())
  in
  Cmd.v
    (Cmd.info "top"
       ~doc:
         "Render a live dashboard (RSS, CPU, GC rate, queue depth, worker \
          utilization, counter rates) from a --heartbeat file — or, with \
          --serve, a service panel (RPS, latency percentiles, hit rate) \
          from an access-log file — optionally following a still-running \
          producer.")
    Term.(const run $ hb_file $ follow_arg $ frames_arg $ interval_arg
          $ serve_arg)

(* --- serve / submit / cache ---------------------------------------- *)

module Cache = Hlts_eval.Cache
module Serve = Hlts_eval.Serve
module Client = Hlts_eval.Client
module Wire = Hlts_eval.Wire
module Engine = Hlts_eval.Engine
module Json = Obs.Json

let rec mkdir_p path =
  if path <> "" && path <> "." && path <> "/" && not (Sys.file_exists path)
  then begin
    mkdir_p (Filename.dirname path);
    try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

let cache_dir_arg =
  let doc =
    "Cache directory (default: the HLTS_CACHE_DIR environment variable, \
     else ~/.cache/hlts)."
  in
  Arg.(value & opt (some string) None & info [ "cache-dir" ] ~docv:"DIR" ~doc)

let resolve_cache_dir = function
  | Some d -> d
  | None -> Cache.default_dir ()

let tcp_arg =
  let doc = "Listen on (or connect to) TCP $(docv) instead of the Unix socket." in
  Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)

let socket_arg =
  let doc =
    "Unix-domain socket path (default: $(b,serve.sock) in the cache \
     directory)."
  in
  Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)

let resolve_addr ~tcp ~socket ~cache_dir =
  match (tcp, socket) with
  | Some _, Some _ -> Error "--tcp and --socket are mutually exclusive"
  | Some hp, None -> Wire.parse_tcp hp
  | None, Some p -> Ok (Wire.Unix_path p)
  | None, None -> Ok (Wire.Unix_path (Serve.default_socket_path cache_dir))

let serve_cmd =
  let jobs_arg =
    let doc =
      "Worker-pool size for sweep fan-out and PPSFP word batches \
       (default: the HLTS_JOBS environment variable, else 1)."
    in
    Arg.(value & opt (some int) None & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let queue_arg =
    let doc =
      "Async jobs held before the daemon busy-rejects new submissions \
       (backpressure, not buffering)."
    in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let mem_arg =
    let doc = "In-memory cache capacity (entries, all kinds)." in
    Arg.(value & opt int 512 & info [ "mem-entries" ] ~docv:"N" ~doc)
  in
  let no_disk_arg =
    let doc = "Keep the cache in memory only; do not touch the cache directory." in
    Arg.(value & flag & info [ "no-disk" ] ~doc)
  in
  let access_log_arg =
    let doc =
      "Append one JSON record per request to $(docv): trace id, op, \
       digest, verdict, phase walls (queue/cache/compute/reply) and \
       reply bytes. Watch it live with $(b,hlts top --serve) or render \
       it with $(b,hlts report --serve)."
    in
    Arg.(value & opt (some string) None & info [ "access-log" ] ~docv:"FILE" ~doc)
  in
  let serve_metrics_arg =
    let doc =
      "Rewrite a Prometheus text-exposition snapshot (request and phase \
       latency histograms with $(b,_bucket) series, served/reject \
       counters) to $(docv) on every $(b,stats) request and at \
       shutdown."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let slow_k_arg =
    let doc =
      "Keep the $(docv) slowest requests (with their decision journals) \
       for the SIGUSR1 / $(b,stats) slow-request dump."
    in
    Arg.(value & opt int 8 & info [ "slow-k" ] ~docv:"K" ~doc)
  in
  let run tcp socket cache_dir jobs queue_limit mem_entries no_disk access_log
      metrics slow_k =
    with_errors (fun () ->
        let dir = resolve_cache_dir cache_dir in
        let* addr = resolve_addr ~tcp ~socket ~cache_dir:dir in
        if not no_disk then mkdir_p dir;
        (match addr with
        | Wire.Unix_path p -> mkdir_p (Filename.dirname p)
        | Wire.Tcp _ -> ());
        let cache =
          Cache.create ~dir:(if no_disk then None else Some dir) ~mem_entries ()
        in
        let log line =
          Printf.eprintf "hlts serve: %s\n%!" line
        in
        (* Each record is written with one [write] so a concurrent
           [hlts top --serve] never reads an interleaved line — only,
           at worst, a torn tail, which the reader tolerates. *)
        let access_log, close_access =
          match access_log with
          | None -> (None, fun () -> ())
          | Some path ->
            (* fail fast, exit 1, before the daemon binds anything *)
            let fd =
              try
                Unix.openfile path
                  [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
              with Unix.Unix_error (e, _, _) ->
                raise
                  (Sys_error
                     (Printf.sprintf "%s: %s" path (Unix.error_message e)))
            in
            ( Some
                (fun line ->
                  ignore (Unix.write_substring fd line 0 (String.length line))),
              fun () -> (try Unix.close fd with Unix.Unix_error _ -> ()) )
        in
        match
          Fun.protect
            ~finally:close_access
            (fun () ->
              Serve.run
                { Serve.addr; cache; jobs; backend = None; queue_limit; log;
                  access_log; metrics; slow_k })
        with
        | () -> Ok ()
        | exception Failure msg -> Error msg
        | exception Unix.Unix_error (e, fn, arg) ->
          Error
            (Printf.sprintf "%s: %s (%s %s)"
               (Wire.addr_to_string addr) (Unix.error_message e) fn arg))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the batch-synthesis daemon: length-prefixed JSON requests \
          over a Unix-domain socket (or --tcp), answered from the \
          content-addressed result cache. SIGTERM drains gracefully.")
    Term.(const run $ tcp_arg $ socket_arg $ cache_dir_arg $ jobs_arg
          $ queue_arg $ mem_arg $ no_disk_arg $ access_log_arg
          $ serve_metrics_arg $ slow_k_arg)

let submit_cmd =
  let op_arg =
    let doc =
      "Operation: $(b,ping), $(b,stats), $(b,shutdown), $(b,synth), \
       $(b,testability), $(b,atpg) or $(b,sweep) (all approaches x 4/8/16 \
       bits for each benchmark, i.e. one paper table per benchmark)."
    in
    Arg.(value & pos 0 string "ping" & info [] ~docv:"OP" ~doc)
  in
  let benches_arg =
    let doc = "Benchmark name(s), comma-separated for sweep." in
    Arg.(value & opt string "diffeq" & info [ "b"; "bench" ] ~docv:"NAMES" ~doc)
  in
  let async_arg =
    let doc =
      "Do not wait: the daemon queues the work and replies immediately \
       with the request digest; resubmit later to collect the cached \
       result. A full queue is a busy rejection (exit 2)."
    in
    Arg.(value & flag & info [ "async" ] ~doc)
  in
  let wait_arg =
    let doc = "Wait for the result (the default; negates a habit of --async)." in
    Arg.(value & flag & info [ "wait" ] ~doc)
  in
  let journal_arg =
    let doc = "Include the decision journal in the reply (printed with --raw)." in
    Arg.(value & flag & info [ "journal" ] ~doc)
  in
  let raw_arg =
    let doc = "Print the raw JSON reply instead of the summary lines." in
    Arg.(value & flag & info [ "raw" ] ~doc)
  in
  let submit_trace_arg =
    let doc =
      "Trace the request end to end and write one Chrome trace_event \
       file to $(docv): the client round-trip plus the daemon's and its \
       pool workers' spans, all on one timeline. Load it in \
       chrome://tracing or Perfetto."
    in
    Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)
  in
  let summarize reply =
    let str name =
      match Json.member name reply with Some (Json.Str s) -> Some s | _ -> None
    in
    (match Json.member "accepted" reply with
    | Some (Json.Bool true) ->
      Printf.printf "accepted digest=%s\n"
        (Option.value ~default:"?" (str "digest"))
    | _ -> (
      match str "digest" with
      | Some digest ->
        let cached =
          match Json.member "cached" reply with
          | Some (Json.Bool true) -> "hit"
          | _ -> "miss"
        in
        Printf.printf "digest=%s cache=%s response_digest=%s journal_digest=%s\n"
          digest cached
          (Option.value ~default:"?" (str "response_digest"))
          (Option.value ~default:"?" (str "journal_digest"));
        (match Json.member "response" reply with
        | Some (Json.Obj _ as resp) -> (
          let rows =
            match Json.member "rows" resp with
            | Some (Json.List rows) -> rows
            | _ -> (
              match Json.member "row" resp with Some r -> [ r ] | None -> [])
          in
          List.iter
            (fun row ->
              match
                ( Json.member "approach" row,
                  Json.member "bits" row,
                  Json.member "fault_coverage_pct" row )
              with
              | Some (Json.Str a), Some (Json.Int b), Some cov ->
                let cov =
                  match cov with
                  | Json.Float f -> f
                  | Json.Int i -> float_of_int i
                  | _ -> nan
                in
                Printf.printf "  %-12s %2d bit  cov %6.2f%%\n" a b cov
              | _ -> ())
            rows)
        | _ -> ())
      | None -> print_string (Json.to_string reply); print_newline ()));
    Ok ()
  in
  let run op benches approach bits seed tcp socket cache_dir async wait
      journal raw trace =
    with_errors (fun () ->
        ignore wait;
        let dir = resolve_cache_dir cache_dir in
        let* addr = resolve_addr ~tcp ~socket ~cache_dir:dir in
        let* envelope =
          match op with
          | "ping" | "stats" | "shutdown" ->
            Ok (Json.Obj [ ("op", Json.Str op) ])
          | "synth" | "testability" | "atpg" | "sweep" ->
            let* a = find_approach approach in
            let atpg = atpg_config seed in
            let names = String.split_on_char ',' benches in
            let* req =
              match op with
              | "sweep" ->
                let* cells =
                  List.fold_left
                    (fun acc bench ->
                      let* acc = acc in
                      let* per_bench =
                        List.fold_left
                          (fun acc approach ->
                            let* acc = acc in
                            let* s =
                              Engine.spec ~atpg ~bench ~approach ~bits ()
                            in
                            Ok (s :: acc))
                          (Ok []) Experiments.approaches
                      in
                      Ok (List.rev_append per_bench acc))
                    (Ok []) names
                in
                Ok (Engine.Sweep (List.rev cells))
              | single -> (
                let* bench =
                  match names with
                  | [ b ] -> Ok b
                  | _ -> Error "one benchmark per non-sweep request"
                in
                let* s = Engine.spec ~atpg ~bench ~approach:a ~bits () in
                Ok
                  (match single with
                  | "synth" -> Engine.Synth s
                  | "testability" -> Engine.Testability s
                  | _ -> Engine.Atpg s))
            in
            let extra =
              (if async then [ ("wait", Json.Bool false) ] else [])
              @ if journal then [ ("journal", Json.Bool true) ] else []
            in
            (match Engine.request_to_json req with
            | Json.Obj fields -> Ok (Json.Obj (fields @ extra))
            | j -> Ok j)
          | other -> Error (Printf.sprintf "unknown op %S" other)
        in
        let* reply =
          match trace with
          | None ->
            Client.with_connection addr (fun c -> Client.rpc c envelope)
          | Some path ->
            let ctx = Obs.Trace_ctx.generate () in
            let* reply, spans =
              Client.with_connection addr (fun c ->
                  Client.traced_rpc c ctx envelope)
            in
            let doc =
              Obs.Trace_ctx.chrome_trace
                ~meta:[ ("traceId", Json.Str ctx.Obs.Trace_ctx.trace_id) ]
                spans
            in
            let oc = open_out path in
            Fun.protect
              ~finally:(fun () -> close_out oc)
              (fun () -> output_string oc (Json.to_string doc));
            Printf.eprintf "hlts submit: trace %s -> %s (%d spans)\n%!"
              ctx.Obs.Trace_ctx.trace_id path (List.length spans);
            Ok reply
        in
        match Client.ok reply with
        | Error msg -> Error msg
        | Ok reply ->
          if raw then begin
            print_string (Json.to_string reply);
            print_newline ();
            Ok ()
          end
          else summarize reply)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a request to a running $(b,hlts serve) daemon.")
    Term.(const run $ op_arg $ benches_arg $ approach_arg $ bits_arg
          $ seed_arg $ tcp_arg $ socket_arg $ cache_dir_arg
          $ async_arg $ wait_arg $ journal_arg $ raw_arg $ submit_trace_arg)

let cache_cmd =
  let action_arg =
    let doc = "$(b,stats) (scan, report, evict corrupt) or $(b,clear)." in
    Arg.(value & pos 0 string "stats" & info [] ~docv:"ACTION" ~doc)
  in
  let run action cache_dir =
    with_errors (fun () ->
        let dir = resolve_cache_dir cache_dir in
        match action with
        | "stats" ->
          if not (Sys.file_exists dir) then begin
            Printf.printf "%s: empty (directory does not exist)\n" dir;
            Ok ()
          end
          else begin
            let s = Cache.scan_dir dir in
            Printf.printf "%s: %d entries, %d bytes\n" dir s.Cache.entries
              s.Cache.bytes;
            List.iter
              (fun (kind, n) -> Printf.printf "  %-12s %d\n" kind n)
              s.Cache.kinds;
            (match s.Cache.corrupt with
            | [] -> ()
            | paths ->
              Printf.printf "evicted %d corrupt entr%s:\n" (List.length paths)
                (if List.length paths = 1 then "y" else "ies");
              List.iter (fun p -> Printf.printf "  %s\n" p) paths);
            Ok ()
          end
        | "clear" ->
          let n = if Sys.file_exists dir then Cache.clear_dir dir else 0 in
          Printf.printf "%s: removed %d entr%s\n" dir n
            (if n = 1 then "y" else "ies");
          Ok ()
        | other -> Error (Printf.sprintf "unknown cache action %S" other))
  in
  Cmd.v
    (Cmd.info "cache"
       ~doc:
         "Inspect or clear the content-addressed result cache. \
          $(b,stats) validates every entry (magic, version, checksum, \
          length) and evicts the corrupt ones.")
    Term.(const run $ action_arg $ cache_dir_arg)

let () =
  let info =
    Cmd.info "hlts" ~version:"1.0.0"
      ~doc:
        "High-level test synthesis: integrated scheduling and allocation \
         (Yang & Peng, DATE 1998)."
  in
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  exit
    (Cmd.eval'
       (Cmd.group info ~default
          [
            list_cmd; synth_cmd; testability_cmd; atpg_cmd; profile_cmd;
            report_cmd; top_cmd; table_cmd; figure_cmd; ablation_cmd;
            verify_cmd; dot_cmd; compile_cmd; serve_cmd; submit_cmd;
            cache_cmd;
          ]))
