(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (DESIGN.md §3).

   Default run: Figure 1, Tables 1-3, Figures 2-3, the extra-benchmark
   table (X1) and both ablations (X2, X3). Deterministic for a fixed
   --seed. *)

module Flows = Hlts_synth.Flows
module Eval = Hlts_eval.Eval
module Render = Hlts_eval.Render
module Experiments = Hlts_eval.Experiments

let usage =
  "bench/main.exe [--table 1|2|3|extra] [-j N] [--figure 1|2|3] \
   [--ablation NAME] [--trace FILE] [--seed N] [--json-serve FILE] [--all]"

let atpg_config seed = { Hlts_atpg.Atpg.default_config with Hlts_atpg.Atpg.seed }

let elapsed label f =
  let t0 = Hlts_obs.Clock.now_ns () in
  Hlts_obs.span ~cat:"bench" label (fun _ -> f ());
  Printf.printf "[%.1fs]\n%!" (Hlts_obs.Clock.seconds_since t0)

let run_table ?jobs seed which =
  let atpg = atpg_config seed in
  match which with
  | "1" ->
    elapsed "table1" (fun () ->
        Render.table Format.std_formatter
          ~title:"Table 1: area-optimized Ex benchmark"
          (Experiments.table1 ~atpg ?jobs ()))
  | "2" ->
    elapsed "table2" (fun () ->
        Render.table Format.std_formatter ~with_area:true
          ~title:"Table 2: area-optimized Dct benchmark"
          (Experiments.table2 ~atpg ?jobs ()))
  | "3" ->
    elapsed "table3" (fun () ->
        Render.table Format.std_formatter ~with_area:true
          ~title:"Table 3: area-optimized Diffeq benchmark"
          (Experiments.table3 ~atpg ?jobs ()))
  | "extra" ->
    elapsed "table-extra" (fun () ->
        List.iter
          (fun (name, rows) ->
            Render.table Format.std_formatter ~with_area:true
              ~title:(Printf.sprintf "Extra (X1): %s benchmark at 8 bit" name)
              rows)
          (Experiments.extra_rows ~atpg ?jobs ()))
  | other -> invalid_arg ("unknown table " ^ other)

let run_figure which =
  (* same canonical parameters as the tables *)
  let params = { Hlts_synth.Synth.default_params with Hlts_synth.Synth.bits = 8 } in
  let show d =
    Render.schedule_figure Format.std_formatter d
      (Eval.outcome ~params Flows.Ours d ~bits:8)
  in
  match which with
  | "1" -> Render.figure1 Format.std_formatter
  | "2" ->
    Printf.printf "Figure 2: the schedule for the Ex benchmark\n";
    show Hlts_dfg.Benchmarks.ex
  | "3" ->
    Printf.printf "Figure 3: the schedules for Dct and Diffeq\n";
    show Hlts_dfg.Benchmarks.dct;
    show Hlts_dfg.Benchmarks.diffeq
  | other -> invalid_arg ("unknown figure " ^ other)

let run_ablation seed which =
  let atpg = atpg_config seed in
  match which with
  | "params" ->
    Printf.printf
      "Ablation X2: (k, alpha, beta) sweep of Ours on Ex at 8 bit\n\
       (the paper: \"the chosen parameters do not influence so much the \
       final results\")\n";
    elapsed "ablation-params" (fun () ->
        List.iter
          (fun ((k, alpha, beta), row) ->
            Printf.printf
              "  k=%d a=%4.1f b=%4.1f: cov=%6.2f%% area=%.3f steps=%d regs=%d \
               units=%d mux=%d\n"
              k alpha beta row.Eval.fault_coverage_pct row.Eval.area_mm2
              row.Eval.schedule_length row.Eval.n_registers row.Eval.n_fus
              row.Eval.n_mux)
          (Experiments.ablation_params ~atpg ()))
  | "balance" ->
    Printf.printf
      "Ablation X3: balance vs connectivity candidate selection (same engine)\n";
    elapsed "ablation-balance" (fun () ->
        List.iter
          (fun (label, row) ->
            Printf.printf
              "  %-20s cov=%6.2f%% seq-depth=%5.1f mux=%2d area=%.3f cycles=%d\n"
              label row.Eval.fault_coverage_pct row.Eval.seq_depth
              row.Eval.n_mux row.Eval.area_mm2 row.Eval.test_cycles)
          (Experiments.ablation_balance ~atpg ()))
  | "latency" ->
    Printf.printf
      "Ablation X5 (extension): latency budget sweep of Ours at 8 bit\n";
    elapsed "ablation-latency" (fun () ->
        List.iter
          (fun ((name, factor), row) ->
            Printf.printf
              "  %-7s %4.2fx: steps=%d area=%.3f cov=%6.2f%% regs=%d units=%d\n"
              name factor row.Eval.schedule_length row.Eval.area_mm2
              row.Eval.fault_coverage_pct row.Eval.n_registers row.Eval.n_fus)
          (Experiments.ablation_latency ~atpg ()))
  | "bist" ->
    Printf.printf
      "Ablation X7 (extension): BIST-mode coverage (LFSR + MISR, 48 cycles)\n";
    elapsed "ablation-bist" (fun () ->
        List.iter
          (fun (name, covs) ->
            Printf.printf "  %-7s %s\n" name
              (String.concat "  "
                 (List.map (fun (a, c) -> Printf.sprintf "%s=%.2f%%" a c) covs)))
          (Experiments.bist_comparison ~seed ()))
  | "scan" ->
    Printf.printf
      "Ablation X6 (extension): non-scan (the paper's setting) vs full scan\n";
    elapsed "ablation-scan" (fun () ->
        List.iter
          (fun (name, base, scan_cov, scan_effort) ->
            Printf.printf
              "  %-7s non-scan cov %6.2f%% (effort %6d)  full-scan cov %6.2f%% (effort %6d)\n"
              name base.Eval.fault_coverage_pct base.Eval.tg_effort scan_cov
              scan_effort)
          (Experiments.scan_comparison ~atpg ()))
  | "testpoints" ->
    Printf.printf
      "Ablation X4 (extension): CAMAD designs at 8 bit, without and with\n\
       two analysis-recommended observation points\n";
    elapsed "ablation-testpoints" (fun () ->
        List.iter
          (fun (name, base, tapped) ->
            Printf.printf
              "  %-7s cov %6.2f%% -> %6.2f%%   cycles %4d -> %4d   effort %6d -> %6d\n"
              name base.Eval.fault_coverage_pct tapped.Eval.fault_coverage_pct
              base.Eval.test_cycles tapped.Eval.test_cycles base.Eval.tg_effort
              tapped.Eval.tg_effort)
          (Experiments.test_points ~atpg ()))
  | other -> invalid_arg ("unknown ablation " ^ other)

(* --- JSON serve-cache benchmark (BENCH_serve.json) ------------------ *)

(* Cold-versus-warm proof of the content-addressed cache: the full
   bench sweep (Tables 1-3 plus the extra benchmarks) is issued twice
   through the {!Engine} against one disk cache directory — first cold
   (fresh directory), then warm (a fresh engine over the same
   directory, so every hit comes from disk, as a restarted [hlts serve]
   daemon would see it). The request, response and journal digests must
   be byte-identical between the passes and the warm pass must report
   every sweep fully cached; a violation aborts the benchmark rather
   than committing an invalid file. The wall times and speedup are
   machine facts recorded for the drift gate (which asserts the >= 5x
   floor in CI). *)

module Synth = Hlts_synth.Synth
module Engine = Hlts_eval.Engine
module Cache = Hlts_eval.Cache

(* Host metadata stamped into the BENCH document: the wall-clock fields
   are only meaningful relative to the machine and toolchain that
   produced them. *)
let host_json () =
  let nproc =
    try
      let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
      let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
      ignore (Unix.close_process_in ic);
      max n 1
    with _ -> 1
  in
  Hlts_obs.Json.(
    Obj
      [
        ("nproc", Int nproc);
        ("ocaml", Str Sys.ocaml_version);
        ("os_type", Str Sys.os_type);
        ("word_size", Int Sys.word_size);
      ])

(* Resource usage of the benchmark process, stamped next to [host] when
   the document is written (so it covers the whole run). Informational
   and host-dependent, like the wall times: the drift gate keys on an
   explicit field list, so nothing here is ever asserted. *)
let res_json () =
  let s = Hlts_obs.Res.snapshot () in
  Hlts_obs.Json.(
    Obj
      [
        ("max_rss_kb", Int s.Hlts_obs.Res.max_rss_kb);
        ("utime_s", Float s.Hlts_obs.Res.utime_s);
        ("stime_s", Float s.Hlts_obs.Res.stime_s);
        ("gc_minor_words", Float s.Hlts_obs.Res.minor_words);
        ("gc_major_words", Float s.Hlts_obs.Res.major_words);
        ("gc_minor_collections", Int s.Hlts_obs.Res.minor_collections);
        ("gc_major_collections", Int s.Hlts_obs.Res.major_collections);
      ])

let serve_sweeps seed =
  let atpg = atpg_config seed in
  let params = { Synth.default_params with Synth.bits = 8 } in
  let spec ~bench ~approach ~bits =
    match Engine.spec ~params ~atpg ~bench ~approach ~bits () with
    | Ok s -> s
    | Error e -> failwith e
  in
  let table bench =
    List.concat_map
      (fun approach ->
        List.map
          (fun bits -> spec ~bench ~approach ~bits)
          Experiments.widths)
      Experiments.approaches
  in
  let extra bench =
    List.map (fun approach -> spec ~bench ~approach ~bits:8)
      Experiments.approaches
  in
  [
    ("table1-ex", table "ex");
    ("table2-dct", table "dct");
    ("table3-diffeq", table "diffeq");
    ("extra-ewf", extra "ewf");
    ("extra-paulin", extra "paulin");
    ("extra-tseng", extra "tseng");
  ]

let rec rm_rf path =
  if Sys.is_directory path then begin
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  end
  else Sys.remove path

let run_json_serve seed file =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "hlts-serve-bench.%d" (Unix.getpid ()))
  in
  if Sys.file_exists dir then rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect ~finally:(fun () -> try rm_rf dir with Sys_error _ -> ())
  @@ fun () ->
  let sweeps = serve_sweeps seed in
  let pass label =
    (* fresh engine per pass: the warm pass holds no memory-tier state,
       so every hit is a disk hit — the daemon-restart scenario *)
    let engine = Engine.create ~cache:(Cache.create ~dir:(Some dir) ()) () in
    List.map
      (fun (name, cells) ->
        Printf.printf "json-serve: %s %s...%!" label name;
        let t0 = Hlts_obs.Clock.now_ns () in
        let r = Engine.run engine (Engine.Sweep cells) in
        let wall = Hlts_obs.Clock.seconds_since t0 in
        Printf.printf " done [%.2fs]%s\n%!" wall
          (if r.Engine.cached then " (cached)" else "");
        (name, cells, r, wall))
      sweeps
  in
  let cold = pass "cold" in
  let warm = pass "warm" in
  let total walls =
    List.fold_left (fun acc (_, _, _, w) -> acc +. w) 0.0 walls
  in
  let entries =
    List.map2
      (fun (name, cells, (rc : Engine.result), wall_cold)
           (_, _, (rw : Engine.result), wall_warm) ->
        (* The digests are recomputed from the content (the oracle),
           and the ones the result carries must equal them. *)
        let dig label (r : Engine.result) =
          let resp_d = Engine.response_digest r.Engine.response
          and journal_d = Engine.journal_digest r.Engine.journal in
          if
            r.Engine.response_digest <> resp_d
            || r.Engine.journal_digest <> journal_d
          then
            failwith
              (Printf.sprintf "%s: %s stored digests differ from the content"
                 name label);
          (r.Engine.digest, resp_d, journal_d)
        in
        let cold_d = dig "cold" rc and warm_d = dig "warm" rw in
        if cold_d <> warm_d then
          failwith
            (Printf.sprintf "%s: warm digests differ from cold digests" name);
        if not rw.Engine.cached then
          failwith (Printf.sprintf "%s: warm pass was not fully cached" name);
        let req_d, resp_d, journal_d = cold_d in
        let open Hlts_obs.Json in
        Obj
          [
            ("name", Str name);
            ("cells", Int (List.length cells));
            ("wall_cold_s", Float wall_cold);
            ("wall_warm_s", Float wall_warm);
            ( "speedup",
              Float (if wall_warm > 0.0 then wall_cold /. wall_warm else 0.0)
            );
            ("request_digest", Str req_d);
            ("response_digest", Str resp_d);
            ("journal_digest", Str journal_d);
          ])
      cold warm
  in
  let cold_s = total cold and warm_s = total warm in
  let speedup = if warm_s > 0.0 then cold_s /. warm_s else 0.0 in
  Printf.printf "json-serve: cold %.2fs, warm %.4fs, speedup %.0fx\n%!" cold_s
    warm_s speedup;
  (* Warm-hit latency distribution: one representative sweep recalled N
     times from a fresh engine over the hot disk cache — the per-request
     hit latency a restarted [hlts serve] daemon answers at, reported as
     the percentiles [hlts top --serve] shows live. *)
  let warm_hit_repeats = 100 in
  let warm_lat =
    let engine = Engine.create ~cache:(Cache.create ~dir:(Some dir) ()) () in
    let _, cells = List.hd sweeps in
    Array.init warm_hit_repeats (fun _ ->
        let t0 = Hlts_obs.Clock.now_ns () in
        let r = Engine.run engine (Engine.Sweep cells) in
        if not r.Engine.cached then failwith "warm-hit pass missed the cache";
        Hlts_obs.Clock.seconds_since t0)
  in
  Array.sort compare warm_lat;
  let pctl p = Hlts_eval.Top.percentile warm_lat p *. 1000.0 in
  Printf.printf
    "json-serve: warm hit p50 %.2f ms, p95 %.2f ms, p99 %.2f ms (n=%d)\n%!"
    (pctl 0.50) (pctl 0.95) (pctl 0.99) warm_hit_repeats;
  let doc =
    Hlts_obs.Json.(
      Obj
        [
          ("schema", Str "hlts-bench-serve/2");
          ("host", host_json ());
          ("res", res_json ());
          ("seed", Int seed);
          ("wall_cold_s", Float cold_s);
          ("wall_warm_s", Float warm_s);
          ("speedup", Float speedup);
          ( "warm_hit",
            Obj
              [
                ("repeats", Int warm_hit_repeats);
                ("p50_ms", Float (pctl 0.50));
                ("p95_ms", Float (pctl 0.95));
                ("p99_ms", Float (pctl 0.99));
                ("max_ms", Float (pctl 1.0));
              ] );
          ("sweeps", List entries);
        ])
  in
  let oc = open_out file in
  output_string oc (Hlts_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d sweeps)\n%!" file (List.length entries)

let tables = [ "1"; "2"; "3"; "extra" ]

let figures = [ "1"; "2"; "3" ]

let ablations = [ "params"; "balance"; "latency"; "testpoints"; "scan"; "bist" ]

let () =
  let seed = ref 1 in
  let jobs = ref None in
  let trace = ref None in
  let actions : (unit -> unit) list ref = ref [] in
  let add f = actions := f :: !actions in
  let all seed =
    run_figure "1";
    List.iter (run_table ?jobs:!jobs seed) [ "1"; "2"; "3" ];
    List.iter run_figure [ "2"; "3" ];
    run_table ?jobs:!jobs seed "extra";
    run_ablation seed "params";
    run_ablation seed "balance";
    run_ablation seed "latency";
    run_ablation seed "testpoints";
    run_ablation seed "scan";
    run_ablation seed "bist"
  in
  (* Arg.Symbol refuses a name outside its list and prints the valid
     ones, so a mistyped invocation exits 1 before anything runs. *)
  let spec =
    [
      ( "--table",
        Arg.Symbol
          (tables, fun s -> add (fun () -> run_table ?jobs:!jobs !seed s)),
        "  regenerate one table" );
      ( "-j",
        Arg.Int (fun n -> jobs := Some n),
        "N      run N pool workers for the table ATPG cells (also: HLTS_JOBS)" );
      ( "--figure",
        Arg.Symbol (figures, fun s -> add (fun () -> run_figure s)),
        "  regenerate one figure" );
      ( "--ablation",
        Arg.Symbol (ablations, fun s -> add (fun () -> run_ablation !seed s)),
        "  run one ablation" );
      ("--seed", Arg.Set_int seed, "N      ATPG random seed (default 1)");
      ( "--json-serve",
        Arg.String (fun f -> add (fun () -> run_json_serve !seed f)),
        "FILE   write the cold-vs-warm serve-cache benchmark \
         (BENCH_serve.json); asserts byte-identical digests" );
      ( "--trace",
        Arg.String (fun f -> trace := Some f),
        "FILE   write a Chrome trace_event file of the run" );
      ( "--all",
        Arg.Unit (fun () -> add (fun () -> all !seed)),
        "       run everything (the default)" );
    ]
  in
  (match
     Arg.parse_argv Sys.argv spec
       (fun s -> raise (Arg.Bad (Printf.sprintf "unexpected argument %S" s)))
       usage
   with
  | () -> ()
  | exception Arg.Bad msg ->
    prerr_string msg;
    exit 1
  | exception Arg.Help msg ->
    print_string msg;
    exit 0);
  let run () =
    match List.rev !actions with
    | [] -> all !seed
    | actions -> List.iter (fun f -> f ()) actions
  in
  match !trace with
  | None -> run ()
  | Some path ->
    let oc = open_out path in
    let sink = Hlts_obs.chrome_sink (output_string oc) in
    Fun.protect
      ~finally:(fun () ->
        sink.Hlts_obs.flush ();
        close_out oc)
      (fun () -> Hlts_obs.with_sink sink run)
