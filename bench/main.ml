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
   [--ablation params|balance] [--trace FILE] [--seed N] [--json FILE] \
   [--json-bench NAMES] [--json-atpg FILE] [--json-serve FILE] [--all]"

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
  | other -> Printf.eprintf "unknown table %S\n" other

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
  | other -> Printf.eprintf "unknown figure %S\n" other

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
  | other -> Printf.eprintf "unknown ablation %S\n" other

(* --- JSON perf trajectory (BENCH_synth.json) ------------------------ *)

(* Machine-readable synthesis benchmark: for every paper benchmark at
   4/8/16 bits, one [Synth.run] under a Summary sink, reporting wall
   time, iteration count, the hlts_obs counters (so the numbers are
   self-consistent with [hlts profile]) and the final E/H. The
   [records_digest] is an MD5 over the full iteration record sequence
   (description, dE, dH, cost, seq-depth — floats rendered as hex so
   the digest is bit-exact); two runs produce the same digest iff the
   merge trajectories are identical. Everything except [wall_s] is
   deterministic. *)

module Synth = Hlts_synth.Synth
module State = Hlts_synth.State

let json_benchmarks = [ "ex"; "dct"; "diffeq"; "ewf"; "paulin"; "tseng" ]

let json_widths = [ 4; 8; 16 ]

(* Synthetic workloads (seeded, ~3x and ~5x EWF) for measuring the
   parallel candidate evaluation: the paper benchmarks top out around
   half a second, too short for wall-clock speedup to mean much. Run at
   one width, once per jobs setting; the digests must agree across
   jobs. Wall times and the speedup are machine facts, not asserted —
   on a single-core host the pooled run is strictly slower (DESIGN.md
   §6.3); everything else in the entry is deterministic. *)
let json_synthetics =
  [
    ("rnd-a", Hlts_dfg.Benchmarks.random ~seed:11 ~ops:100);
    ("rnd-b", Hlts_dfg.Benchmarks.random ~seed:23 ~ops:170);
  ]

let synthetic_bits = 8

let synthetic_jobs = [ 1; 4 ]

(* Host metadata stamped into both BENCH documents: the wall-clock
   fields are only meaningful relative to the machine and toolchain
   that produced them. Everything deterministic is elsewhere. *)
let nproc =
  lazy
    (try
       let ic = Unix.open_process_in "getconf _NPROCESSORS_ONLN 2>/dev/null" in
       let n = try int_of_string (String.trim (input_line ic)) with _ -> 0 in
       ignore (Unix.close_process_in ic);
       max n 1
     with _ -> 1)

let host_json ~jobs =
  Hlts_obs.Json.(
    Obj
      ([
         ("nproc", Int (Lazy.force nproc));
         ("ocaml", Str Sys.ocaml_version);
         ("os_type", Str Sys.os_type);
         ("word_size", Int Sys.word_size);
       ]
      @
      match jobs with
      | [] -> []
      | js -> [ ("jobs", List (Stdlib.List.map (fun j -> Int j) js)) ]))

(* Resource usage of the benchmark process, stamped next to [host] when
   the document is written (so it covers the whole run). Informational
   and host-dependent, like the wall times: every drift gate keys on an
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

let records_digest records =
  let line r =
    Printf.sprintf "%d|%s|%d|%h|%h|%h" r.Synth.iteration r.Synth.description
      r.Synth.delta_e r.Synth.delta_h r.Synth.cost r.Synth.seq_depth
  in
  Digest.to_hex (Digest.string (String.concat "\n" (List.map line records)))

(* What a wall time measures: the serial path at [-j 1]; at [-j N] a
   speedup only when the host has N cores, otherwise the pool's
   overhead on too few cores. *)
let wall_kind ~jobs =
  if jobs <= 1 then "serial"
  else if Lazy.force nproc < jobs then "overhead"
  else "parallel"

let json_entry ?(jobs = 1) name dfg bits =
  let summary = Hlts_obs.Summary.create () in
  let params = { Synth.default_params with Synth.bits } in
  let t0 = Hlts_obs.Clock.now_ns () in
  let r =
    Hlts_obs.with_sink (Hlts_obs.Summary.sink summary) (fun () ->
        Synth.run ~params ~jobs dfg)
  in
  let wall_s = Hlts_obs.Clock.seconds_since t0 in
  let counter = Hlts_obs.Summary.counter summary in
  let digest = records_digest r.Synth.records in
  let open Hlts_obs.Json in
  ( Obj
      [
        ("name", Str name);
        ("bits", Int bits);
        ("jobs", Int jobs);
        ("wall_s", Float wall_s);
        ("wall_kind", Str (wall_kind ~jobs));
        ("iterations", Int r.Synth.iterations);
        ("merge_attempts", Int (counter "synth.merge_attempts"));
        ("reschedule_attempts", Int (counter "sched.reschedule_attempts"));
        ("testability_analyses", Int (counter "testability.analyses"));
        ("scans_widened", Int (counter "synth.scans_widened"));
        ("commits", Int (counter "synth.commits"));
        ("final_e", Int (State.execution_time r.Synth.final));
        ("final_h", Float (State.area r.Synth.final ~bits));
        ( "schedule_length",
          Int (Hlts_sched.Schedule.length r.Synth.final.State.schedule) );
        ("records_digest", Str digest);
      ],
    digest,
    wall_s )

(* The names of [only] that a JSON mode can run, in [valid] order; the
   whole set when [only] is empty. A name the mode cannot run is a
   usage error: it is reported with the valid names and the harness
   exits 1 rather than writing a BENCH file without it. *)
let select_names ~mode ~valid only =
  match List.filter (fun n -> not (List.mem n valid)) only with
  | [] -> if only = [] then valid else List.filter (fun n -> List.mem n only) valid
  | unknown ->
    Printf.eprintf "error: %s cannot run %s (available: %s)\n" mode
      (String.concat ", " (List.map (Printf.sprintf "%S") unknown))
      (String.concat ", " valid);
    exit 1

let run_json ~only file =
  let selected =
    select_names ~mode:"--json"
      ~valid:(json_benchmarks @ List.map fst json_synthetics)
      only
  in
  let selected_syn =
    List.filter (fun (n, _) -> List.mem n selected) json_synthetics
  in
  let paper_entries =
    List.concat_map
      (fun name ->
        let dfg = List.assoc name Hlts_dfg.Benchmarks.all in
        List.map
          (fun bits ->
            Printf.printf "json: %s @ %d bit...%!" name bits;
            let e, _, _ = json_entry name dfg bits in
            Printf.printf " done\n%!";
            e)
          json_widths)
      (List.filter (fun n -> List.mem n json_benchmarks) selected)
  in
  (* One entry per (synthetic, jobs); the merge trajectory must not
     depend on the worker count, so a digest disagreement aborts the
     benchmark rather than committing an invalid file. *)
  let synthetic_entries =
    let serial_digest = Hashtbl.create 4 and serial_wall = Hashtbl.create 4 in
    List.concat_map
      (fun jobs ->
        List.map
          (fun (name, dfg) ->
            Printf.printf "json: %s @ %d bit -j %d...%!" name synthetic_bits
              jobs;
            let e, digest, wall = json_entry ~jobs name dfg synthetic_bits in
            Printf.printf " done [%.1fs]\n%!" wall;
            (match Hashtbl.find_opt serial_digest name with
            | None ->
              Hashtbl.add serial_digest name digest;
              Hashtbl.add serial_wall name wall
            | Some d0 ->
              if digest <> d0 then
                failwith
                  (Printf.sprintf "%s: -j %d digest %s differs from -j 1 digest %s"
                     name jobs digest d0);
              Printf.printf "json: %s speedup at -j %d (%s): %.2fx\n%!" name
                jobs (wall_kind ~jobs)
                (Hashtbl.find serial_wall name /. wall));
            e)
          selected_syn)
      synthetic_jobs
  in
  let entries = paper_entries @ synthetic_entries in
  let doc =
    Hlts_obs.Json.(
      Obj
        [
          ("schema", Str "hlts-bench-synth/6");
          ("host", host_json ~jobs:synthetic_jobs);
          ("res", res_json ());
          ("benchmarks", List entries);
        ])
  in
  let oc = open_out file in
  output_string oc (Hlts_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" file (List.length entries)

(* --- JSON ATPG perf trajectory (BENCH_atpg.json) -------------------- *)

(* Machine-readable fault-simulation benchmark: for every paper
   benchmark at the selected bit widths (--json-atpg-widths, default
   4/8/16), synthesize with "Ours" (the canonical 8-bit structure, as
   in the tables), expand at [bits] and run the full ATPG pipeline.
   Everything except the wall-time and throughput fields is
   deterministic; [detect_digest] pins the exact detection events, so a
   drift in fault grading or PODEM shows up even when the coverage
   happens to stay the same. *)

module Atpg = Hlts_atpg.Atpg

let atpg_json_entry seed name dfg bits =
  let params = { Synth.default_params with Synth.bits = 8 } in
  let o = Eval.outcome ~params Flows.Ours dfg ~bits:8 in
  let circuit = Hlts_netlist.Expand.circuit o.Flows.etpn ~bits in
  let config = atpg_config seed in
  let summary = Hlts_obs.Summary.create () in
  let t0 = Hlts_obs.Clock.now_ns () in
  let r =
    Hlts_obs.with_sink (Hlts_obs.Summary.sink summary) (fun () ->
        Atpg.run ~config circuit)
  in
  let wall_s = Hlts_obs.Clock.seconds_since t0 in
  let per_s faults seconds =
    if seconds > 0.0 then float_of_int faults /. seconds else 0.0
  in
  let sample_mean key =
    match List.assoc_opt key (Hlts_obs.Summary.samples summary) with
    | Some s when s.Hlts_obs.Summary.n > 0 ->
      s.Hlts_obs.Summary.sum /. float_of_int s.Hlts_obs.Summary.n
    | Some _ | None -> 0.0
  in
  let open Hlts_obs.Json in
  Obj
    [
      ("name", Str name);
      ("bits", Int bits);
      ("wall_s", Float wall_s);
      ("random_s", Float r.Atpg.random_seconds);
      ("det_s", Float r.Atpg.det_seconds);
      ("gates", Int r.Atpg.gate_count);
      ("dffs", Int r.Atpg.dff_count);
      ("total_faults", Int r.Atpg.total_faults);
      ("detected_random", Int r.Atpg.detected_random);
      ("detected_det", Int r.Atpg.detected_det);
      ("undetected", Int r.Atpg.undetected);
      ("coverage", Float r.Atpg.coverage);
      ("test_cycles", Int r.Atpg.test_cycles);
      ("effort", Int r.Atpg.effort);
      ("evals", Int r.Atpg.evals);
      ("detect_digest", Str r.Atpg.detect_digest);
      ( "random_faults_per_s",
        Float (per_s r.Atpg.total_faults r.Atpg.random_seconds) );
      ( "det_faults_per_s",
        Float
          (per_s
             (r.Atpg.total_faults - r.Atpg.detected_random)
             r.Atpg.det_seconds) );
      ( "words_simulated",
        Int (Hlts_obs.Summary.counter summary "sim.words_simulated") );
      ("mean_faults_per_word", Float (sample_mean "sim.faults_per_word"));
      ("mean_cone_gates", Float (sample_mean "sim.cone_gates"));
    ]

let run_json_atpg ~only ~widths seed file =
  let selected = select_names ~mode:"--json-atpg" ~valid:json_benchmarks only in
  let entries =
    List.concat_map
      (fun name ->
        let dfg = List.assoc name Hlts_dfg.Benchmarks.all in
        List.map
          (fun bits ->
            Printf.printf "json-atpg: %s @ %d bit...%!" name bits;
            let e = atpg_json_entry seed name dfg bits in
            Printf.printf " done\n%!";
            e)
          widths)
      selected
  in
  let doc =
    Hlts_obs.Json.(
      Obj
        [
          ("schema", Str "hlts-bench-atpg/5");
          ("host", host_json ~jobs:[]);
          ("res", res_json ());
          ("benchmarks", List entries);
        ])
  in
  let oc = open_out file in
  output_string oc (Hlts_obs.Json.to_string doc);
  output_char oc '\n';
  close_out oc;
  Printf.printf "wrote %s (%d entries)\n%!" file (List.length entries)

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

module Engine = Hlts_eval.Engine
module Cache = Hlts_eval.Cache

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
          ("host", host_json ~jobs:[]);
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

let () =
  let seed = ref 1 in
  let jobs = ref None in
  let json_only = ref [] in
  let atpg_widths = ref json_widths in
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
  let spec =
    [
      ( "--table",
        Arg.String
          (fun s ->
            add (fun () -> run_table ?jobs:!jobs !seed s)),
        "TABLE  regenerate one table (1|2|3|extra)" );
      ( "-j",
        Arg.Int (fun n -> jobs := Some n),
        "N      run N pool workers for the table ATPG cells (also: HLTS_JOBS)" );
      ( "--figure",
        Arg.String (fun s -> add (fun () -> run_figure s)),
        "FIG    regenerate one figure (1|2|3)" );
      ( "--ablation",
        Arg.String (fun s -> add (fun () -> run_ablation !seed s)),
        "ABL    run one ablation (params|balance|latency|testpoints|scan|bist)" );
      ("--seed", Arg.Set_int seed, "N      ATPG random seed (default 1)");
      ( "--json",
        Arg.String (fun f -> add (fun () -> run_json ~only:!json_only f)),
        "FILE   write the synthesis perf trajectory (BENCH_synth.json)" );
      ( "--json-bench",
        Arg.String
          (fun s -> json_only := String.split_on_char ',' s),
        "NAMES  restrict --json to a comma-separated benchmark subset" );
      ( "--json-atpg",
        Arg.String
          (fun f ->
            add (fun () ->
                run_json_atpg ~only:!json_only ~widths:!atpg_widths !seed f)),
        "FILE   write the fault-simulation perf trajectory (BENCH_atpg.json)" );
      ( "--json-serve",
        Arg.String (fun f -> add (fun () -> run_json_serve !seed f)),
        "FILE   write the cold-vs-warm serve-cache benchmark \
         (BENCH_serve.json); asserts byte-identical digests" );
      ( "--json-atpg-widths",
        Arg.String
          (fun s ->
            atpg_widths :=
              List.map int_of_string (String.split_on_char ',' s)),
        "W,..   bit widths for --json-atpg (default 4,8,16)" );
      ( "--trace",
        Arg.String (fun f -> trace := Some f),
        "FILE   write a Chrome trace_event file of the run" );
      ( "--all",
        Arg.Unit (fun () -> add (fun () -> all !seed)),
        "       run everything (the default)" );
    ]
  in
  Arg.parse spec (fun s -> Printf.eprintf "unexpected argument %S\n" s) usage;
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
