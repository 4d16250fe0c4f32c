(* The benchmark's shared vocabulary: the metric catalog BENCHMARK.json
   mirrors, the statistics every workload reports with, host facts, and
   the result line the runner prints. *)

module Json = Hlts_obs.Json
module Clock = Hlts_obs.Clock

type better = Lower | Higher

type metric = { name : string; unit : string; better : better }

let m name unit better = { name; unit; better }

(* Every workload reports every end-to-end metric, each over its own
   unit of work: a table cell (tables-cold), a synthesized graph
   (synth-scale) or a daemon request (serve-hot, serve-mixed). *)
let end_to_end =
  [
    m "setup_s" "s" Lower;
    m "p50_ms" "ms" Lower;
    m "p99_ms" "ms" Lower;
    m "items_per_s" "1/s" Higher;
    m "peak_rss_mb" "MB" Lower;
  ]

(* Per-layer metrics of the traced run. A workload that never enters a
   layer reports that layer's metrics as 0. Times are self times (span
   duration minus its children) unless the name says otherwise. *)
let per_layer =
  [
    (* tables-cold: the ATPG-bound table cell *)
    m "engine.self_s" "s" Lower;
    m "synth.flow_s" "s" Lower;
    m "netlist.expand_s" "s" Lower;
    m "atpg.compile_s" "s" Lower;
    m "atpg.random_s" "s" Lower;
    m "atpg.ppsfp_s" "s" Lower;
    m "atpg.det_s" "s" Lower;
    m "atpg.podem_s" "s" Lower;
    m "atpg.drop_s" "s" Lower;
    m "atpg.podem_calls" "count" Lower;
    m "atpg.backtracks" "count" Lower;
    m "atpg.aborted" "count" Lower;
    m "atpg.det_yield" "ratio" Higher;
    m "sim.words_simulated" "count" Lower;
    (* synth-scale: Algorithm 1 *)
    m "synth.run_self_s" "s" Lower;
    m "candidates.score_s" "s" Lower;
    m "merge.self_s" "s" Lower;
    m "sched.reschedule_s" "s" Lower;
    m "testability.analyze_s" "s" Lower;
    m "etpn.build_s" "s" Lower;
    m "petri.critical_path_s" "s" Lower;
    m "synth.merge_attempts" "count" Lower;
    m "sched.reschedule_attempts" "count" Lower;
    m "testability.analyses" "count" Lower;
    m "synth.scans_widened" "count" Lower;
    m "synth.commits" "count" Lower;
    m "sched.mobility_recomputes" "count" Lower;
    m "synth.commit_yield" "ratio" Higher;
    m "gc.minor_mwords" "Mwords" Lower;
    (* serve-hot: the daemon's hit path *)
    m "serve.cache_p50_ms" "ms" Lower;
    m "serve.cache_p99_ms" "ms" Lower;
    m "serve.compute_p50_ms" "ms" Lower;
    m "serve.compute_p99_ms" "ms" Lower;
    m "serve.reply_p50_ms" "ms" Lower;
    m "serve.reply_p99_ms" "ms" Lower;
    m "serve.encode_p50_ms" "ms" Lower;
    m "serve.encode_p99_ms" "ms" Lower;
    m "client.transport_p50_ms" "ms" Lower;
    m "client.transport_p99_ms" "ms" Lower;
    m "engine.request_of_json_us" "us" Lower;
    m "engine.request_of_json_max_us" "us" Lower;
    m "engine.request_digest_us" "us" Lower;
    m "engine.request_digest_max_us" "us" Lower;
    m "engine.run_hit_us" "us" Lower;
    m "engine.run_hit_max_us" "us" Lower;
    m "engine.response_digest_us" "us" Lower;
    m "engine.response_digest_max_us" "us" Lower;
    m "engine.journal_digest_us" "us" Lower;
    m "engine.journal_digest_max_us" "us" Lower;
    m "json.encode_us" "us" Lower;
    m "json.encode_max_us" "us" Lower;
    (* serve-mixed: hits from both cache tiers *)
    m "cache.mem_hit_ratio" "ratio" Higher;
    m "cache.disk_hit_ratio" "ratio" Lower;
    m "cache.disk_find_us" "us" Lower;
    m "serve.hit_total_p50_ms" "ms" Lower;
    m "serve.busy_share" "ratio" Lower;
    (* every workload *)
    m "obs.trace_overhead_pct" "%" Lower;
  ]

(* Workload sizes: [Full] is the benchmark, [Tiny] the same code paths
   on inputs small enough for the test suite. *)
type scale = Full | Tiny

type result = {
  attempted : int;
  failures : string list;  (** one line per failed check *)
  values : (string * float) list;
}

(* --- helpers --------------------------------------------------------- *)

let json_str name j =
  match Json.member name j with Some (Json.Str s) -> s | _ -> ""

(* Pairs elements in order, up to the shorter list. *)
let rec zip xs ys =
  match (xs, ys) with x :: xs, y :: ys -> (x, y) :: zip xs ys | _ -> []

let spec ?params ?atpg ~bench ~approach ~bits () =
  match Hlts_eval.Engine.spec ?params ?atpg ~bench ~approach ~bits () with
  | Ok s -> s
  | Error e -> failwith e

(* --- statistics ------------------------------------------------------ *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  a

(* Nearest-rank percentile, as [hlts top --serve] reports them. *)
let percentile xs q = Hlts_eval.Top.percentile (sorted xs) q

let sum = List.fold_left ( +. ) 0.0

let mean xs = if xs = [] then 0.0 else sum xs /. float_of_int (List.length xs)

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* [statistics.median] and [statistics.quantiles(xs, n=4)] (the default
   exclusive method), so spreads read the same as Python computes them. *)
let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then 0.0
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let quartiles xs =
  let a = sorted xs in
  let n = Array.length a in
  if n < 2 then
    let v = if n = 0 then 0.0 else a.(0) in
    (v, v)
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta))
      /. 4.0
    in
    (q 1, q 3)

(* --- timing ---------------------------------------------------------- *)

let time f =
  let t0 = Clock.now_ns () in
  let r = f () in
  (r, Clock.seconds_since t0)

(* --- host facts ------------------------------------------------------ *)

let read_lines path =
  match open_in path with
  | exception Sys_error _ -> []
  | ic ->
    let rec go acc =
      match input_line ic with
      | l -> go (l :: acc)
      | exception End_of_file ->
        close_in ic;
        List.rev acc
    in
    go []

(* VmHWM of a process in MB; 0 where procfs is unavailable. *)
let peak_rss_mb pid =
  List.fold_left
    (fun acc l ->
      match Scanf.sscanf l "VmHWM: %d kB" Fun.id with
      | kb -> float_of_int kb /. 1024.0
      | exception _ -> acc)
    0.0
    (read_lines (Printf.sprintf "/proc/%s/status" pid))

let host () =
  let nproc =
    List.length
      (List.filter
         (fun l -> String.length l > 9 && String.sub l 0 9 = "processor")
         (read_lines "/proc/cpuinfo"))
  in
  Json.Obj
    [
      ("nproc", Json.Int nproc);
      ("ocaml", Json.Str Sys.ocaml_version);
      ( "loadavg",
        Json.Str
          (match read_lines "/proc/loadavg" with l :: _ -> l | [] -> "") );
    ]

(* --- the result line -------------------------------------------------- *)

(* The catalog a run reports: end-to-end metrics untraced, per-layer
   metrics traced. Layers the workload never entered read 0. *)
let catalog ~traced = if traced then per_layer else end_to_end

let result_json ~traced r =
  let metrics =
    List.map
      (fun { name; unit; _ } ->
        let v =
          match List.assoc_opt name r.values with Some v -> v | None -> 0.0
        in
        (name, Json.Obj [ ("value", Json.Float v); ("unit", Json.Str unit) ]))
      (catalog ~traced)
  in
  Json.Obj
    [
      ("correct", Json.Bool (r.failures = []));
      ("attempted", Json.Int r.attempted);
      ("failed", Json.Int (List.length r.failures));
      ("metrics", Json.Obj metrics);
    ]

(* --- scratch space inside the checkout --------------------------------- *)

let work_root = ".yardstick-work"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* A fresh directory under [work_root], removed after [f] returns or
   raises; [work_root] itself goes too once empty. Relative paths keep
   Unix socket names short wherever the checkout lives. *)
let with_work_dir label f =
  if not (Sys.file_exists work_root) then Unix.mkdir work_root 0o755;
  let dir =
    Filename.concat work_root (Printf.sprintf "%s.%d" label (Unix.getpid ()))
  in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      try Unix.rmdir work_root with Unix.Unix_error _ -> ())
    (fun () -> f dir)
