(* Tests for Hlts_pool.Pool (the persistent domains worker pool), the
   Engine's sweep fan-out built on it, and the end-to-end determinism
   guarantee of parallel synthesis: [Synth.run ~jobs:4] must reproduce
   the serial merge trajectory record for record on arbitrary DFGs.

   The pool has two execution tiers: spawned domains, and inline
   execution on the caller's domain when the domain budget is one core
   ([HLTS_DOMAINS=1], or a 1-core host). Most cases run at the host's
   default budget; the cases that pin a tier set [HLTS_DOMAINS]
   themselves, so both tiers are exercised on every host. *)

module Pool = Hlts_pool.Pool
module Engine = Hlts_eval.Engine
module Synth = Hlts_synth.Synth
module State = Hlts_synth.State
module Atpg = Hlts_atpg.Atpg
module B = Hlts_dfg.Benchmarks
module Obs = Hlts_obs

(* Run [f] with the pool's domain budget forced to [n]. *)
let with_domains n f =
  Unix.putenv "HLTS_DOMAINS" (string_of_int n);
  Fun.protect ~finally:(fun () -> Unix.putenv "HLTS_DOMAINS" "" (* unset *)) f

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec at i = i + n <= m && (String.sub s i n = sub || at (i + 1)) in
  n = 0 || at 0

let check_fails ~substring f =
  match f () with
  | _ -> Alcotest.failf "expected Failure mentioning %S" substring
  | exception Failure msg ->
    if not (contains ~sub:substring msg) then
      Alcotest.failf "Failure %S does not mention %S" msg substring

(* --- basic round-trips -------------------------------------------------- *)

let test_map_roundtrip () =
  Pool.with_pool ~name:"t.map" ~jobs:3 (fun n -> n * n) @@ fun pool ->
  let xs = List.init 20 Fun.id in
  Alcotest.(check (list int))
    "squares in order"
    (List.map (fun n -> n * n) xs)
    (Pool.map pool xs);
  (* the pool persists across batches *)
  Alcotest.(check (list int)) "second batch" [ 100; 121 ] (Pool.map pool [ 10; 11 ])

let test_out_of_order_await () =
  Pool.with_pool ~name:"t.ooo" ~jobs:2 (fun n -> n + 1) @@ fun pool ->
  let a = Pool.submit pool 10 in
  let b = Pool.submit pool 20 in
  let c = Pool.submit pool 30 in
  Alcotest.(check int) "last first" 31 (fst (Pool.await pool c));
  Alcotest.(check int) "then first" 11 (fst (Pool.await pool a));
  Alcotest.(check int) "then middle" 21 (fst (Pool.await pool b))

(* Multi-megabyte tasks and replies pass by reference and come back
   intact. *)
let test_oversized_payloads () =
  Pool.with_pool ~name:"t.big" ~jobs:2 String.uppercase_ascii @@ fun pool ->
  let sizes = [ 64 lsl 10; 1 lsl 20; 6 lsl 20 ] in
  let tickets =
    List.map (fun n -> (n, Pool.submit pool (String.make n 'x'))) sizes
  in
  List.iter
    (fun (n, t) ->
      let r, _ = Pool.await pool t in
      Alcotest.(check int) "reply length" n (String.length r);
      Alcotest.(check string)
        "reply content"
        (Digest.to_hex (Digest.string (String.make n 'X')))
        (Digest.to_hex (Digest.string r)))
    tickets

(* Shared memory: a task may return closures and lazies, and mutations
   to a shared array are visible to the parent after await's
   happens-before edge. *)
let test_zero_copy () =
  let shared = Array.make 8 0 in
  Pool.with_pool ~name:"t.zc" ~jobs:2
    (fun i ->
      shared.(i) <- i * 10;
      (lazy (i * i), fun () -> i))
  @@ fun pool ->
  let replies = Pool.map pool [ 0; 1; 2; 3; 4; 5; 6; 7 ] in
  Alcotest.(check (list int))
    "closures returned through the pool"
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]
    (List.map (fun (_, f) -> f ()) replies);
  Alcotest.(check (list int))
    "lazies returned through the pool"
    [ 0; 1; 4; 9; 16; 25; 36; 49 ]
    (List.map (fun (l, _) -> Lazy.force l) replies);
  Alcotest.(check (list int))
    "worker writes visible to parent"
    [ 0; 10; 20; 30; 40; 50; 60; 70 ]
    (Array.to_list shared)

let test_worker_index_lanes () =
  let jobs = 3 in
  Alcotest.(check int) "parent is lane 0" 0 (Pool.worker_index ());
  Alcotest.(check bool) "parent is not a worker" false (Pool.in_worker ());
  Pool.with_pool ~name:"t.lane" ~jobs (fun _ ->
      (Pool.worker_index (), Pool.in_worker ()))
  @@ fun pool ->
  List.iteri
    (fun ticket (lane, inside) ->
      Alcotest.(check int)
        (Printf.sprintf "ticket %d on its round-robin lane" ticket)
        (ticket mod jobs) lane;
      Alcotest.(check bool) "in_worker inside the worker" true inside)
    (Pool.map pool (List.init 9 Fun.id))

(* --- failure handling --------------------------------------------------- *)

let test_task_exception () =
  Pool.with_pool ~name:"t.exn" ~jobs:2
    (fun n -> if n < 0 then failwith "negative input" else n)
  @@ fun pool ->
  let bad = Pool.submit pool (-1) in
  let good = Pool.submit pool 7 in
  check_fails ~substring:"negative input" (fun () -> Pool.await pool bad);
  (* an ordinary task exception does not kill the worker *)
  Alcotest.(check int) "worker still serves" 7 (fst (Pool.await pool good));
  Alcotest.(check (list int)) "both workers fine" [ 1; 2; 3; 4 ]
    (Pool.map pool [ 1; 2; 3; 4 ])

let test_broadcast_poisoning () =
  let f = function
    | `Set n -> if n < 0 then failwith "bad control" else n
    | `Get -> 0
  in
  Pool.with_pool ~name:"t.ctl" ~jobs:2 f @@ fun pool ->
  Pool.broadcast pool (`Set 5);
  Alcotest.(check int) "after good ctl" 0 (fst (Pool.await pool (Pool.submit pool `Get)));
  Pool.broadcast pool (`Set (-1));
  (* a failed broadcast poisons the lane: every later job on it
     reports the control failure instead of silently diverging *)
  check_fails ~substring:"control task failed" (fun () ->
      Pool.await pool (Pool.submit pool `Get))

let test_shutdown_rejects () =
  let pool = Pool.create ~name:"t.closed" ~jobs:2 Fun.id in
  let t = Pool.submit pool 1 in
  Alcotest.(check int) "works before" 1 (fst (Pool.await pool t));
  Pool.shutdown pool;
  Pool.shutdown pool (* idempotent *);
  (match Pool.submit pool 2 with
  | _ -> Alcotest.fail "submit after shutdown accepted"
  | exception Invalid_argument _ -> ());
  match Pool.await pool t with
  | _ -> Alcotest.fail "await after shutdown accepted"
  | exception Invalid_argument _ -> ()

(* --- worker observability ----------------------------------------------- *)

let recording () =
  let events = ref [] in
  let sink = { Obs.emit = (fun e -> events := e :: !events); flush = ignore } in
  (sink, fun () -> List.rev !events)

(* A task that exercises the whole shipping surface: nested spans and a
   journal decision, all emitted inside the worker. *)
let spanning_task n =
  Obs.span ~cat:"work" "task.outer" (fun _ ->
      Obs.span ~cat:"work" "task.inner" (fun _ -> ());
      Obs.journal (Obs.Journal.Iter_begin { iteration = n; pool = 0 });
      n + 1)

(* Worker spans come back re-stamped on their round-robin lane and the
   captured journal decisions replay in submission order. *)
let check_worker_span_restamp ~name =
  let sink, events = recording () in
  let jobs = 2 in
  let results =
    Obs.with_sink sink (fun () ->
        Pool.with_pool ~name ~jobs spanning_task @@ fun pool ->
        Pool.map pool [ 0; 1; 2; 3; 4; 5 ])
  in
  Alcotest.(check (list int)) "results" [ 1; 2; 3; 4; 5; 6 ] results;
  let wspans =
    List.filter_map
      (function
        | Obs.Worker_span { worker; ticket; span } -> Some (worker, ticket, span)
        | _ -> None)
      (events ())
  in
  (* two task-body spans plus the pool's own per-task span, shipped
     back and re-stamped *)
  Alcotest.(check int) "wspan count" 18 (List.length wspans);
  List.iter
    (fun (worker, ticket, span) ->
      Alcotest.(check int) "round-robin lane" (ticket mod jobs) worker;
      Alcotest.(check bool) "positive duration" true
        (span.Obs.w_dur_ns >= 0L))
    wspans;
  (* per lane, re-stamped spans arrive in the worker's completion order:
     end timestamps never go backwards *)
  for w = 0 to jobs - 1 do
    let lane =
      List.filter_map
        (fun (worker, _, span) ->
          if worker = w then Some span.Obs.w_ts_ns else None)
        wspans
    in
    Alcotest.(check bool)
      (Printf.sprintf "lane %d nonempty" w)
      true (lane <> []);
    ignore
      (List.fold_left
         (fun prev ts ->
           Alcotest.(check bool)
             (Printf.sprintf "lane %d monotonic" w)
             true (ts >= prev);
           ts)
         Int64.min_int lane)
  done;
  let iters =
    List.filter_map
      (function
        | Obs.Decision { d = Obs.Journal.Iter_begin { iteration; _ }; _ } ->
          Some iteration
        | _ -> None)
      (events ())
  in
  Alcotest.(check (list int)) "decisions replayed in order" [ 0; 1; 2; 3; 4; 5 ]
    iters

let test_worker_span_restamp () = check_worker_span_restamp ~name:"t.obs"

let test_worker_span_restamp_spawned () =
  with_domains 2 (fun () -> check_worker_span_restamp ~name:"t.obs.spawn")

let test_chrome_worker_lanes () =
  let buf = Buffer.create 1024 in
  ignore
    (Obs.with_sink
       (Obs.chrome_sink (Buffer.add_string buf))
       (fun () ->
         Pool.with_pool ~name:"t.lanes" ~jobs:2 spanning_task @@ fun pool ->
         Pool.map pool [ 0; 1; 2; 3 ]));
  match Obs.Json.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok doc -> (
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List events) ->
      let by_ph ph field =
        List.filter_map
          (fun e ->
            match Obs.Json.member "ph" e, Obs.Json.member field e with
            | Some (Obs.Json.Str p), Some v when p = ph -> Some v
            | _ -> None)
          events
      in
      let worker_pids =
        List.filter_map
          (function Obs.Json.Int pid when pid >= 2 -> Some pid | _ -> None)
          (by_ph "X" "pid")
        |> List.sort_uniq compare
      in
      Alcotest.(check (list int))
        "complete spans on both worker lanes" [ 2; 3 ] worker_pids;
      let lane_names =
        List.filter_map
          (fun e ->
            match Obs.Json.member "name" e, Obs.Json.member "args" e with
            | Some (Obs.Json.Str "process_name"), Some args ->
              Obs.Json.member "name" args
            | _ -> None)
          events
      in
      List.iter
        (fun n ->
          Alcotest.(check bool) n true
            (List.mem (Obs.Json.Str n) lane_names))
        [ "hlts (parent)"; "pool worker 0"; "pool worker 1" ]
    | _ -> Alcotest.fail "no traceEvents")

(* Chrome-trace structural check: every X event carries pid/tid, and
   within a lane the spans nest — any two are disjoint or contained,
   never partially overlapping. *)
let test_chrome_span_nesting () =
  let buf = Buffer.create 1024 in
  ignore
    (Obs.with_sink
       (Obs.chrome_sink (Buffer.add_string buf))
       (fun () ->
         Obs.span ~cat:"t" "parent.outer" (fun _ ->
             Pool.with_pool ~name:"t.nest" ~jobs:2 spanning_task @@ fun pool ->
             Pool.map pool [ 0; 1; 2; 3; 4; 5 ])));
  match Obs.Json.of_string (Buffer.contents buf) with
  | Error e -> Alcotest.failf "trace does not parse: %s" e
  | Ok doc -> (
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List events) ->
      let xs =
        List.filter_map
          (fun e ->
            match Obs.Json.member "ph" e with
            | Some (Obs.Json.Str "X") ->
              let num field =
                match Obs.Json.member field e with
                | Some (Obs.Json.Int i) -> float_of_int i
                | Some (Obs.Json.Float f) -> f
                | _ -> Alcotest.failf "X event missing %s" field
              in
              Some (num "pid", num "ts", num "dur")
            | _ -> None)
          events
      in
      Alcotest.(check bool) "trace has complete spans" true
        (List.length xs >= 13);
      let eps = 0.011 (* ts unit is us; re-stamping rounds to 1 ns *) in
      List.iter
        (fun (pid, ts, dur) ->
          List.iter
            (fun (pid', ts', dur') ->
              if pid = pid' && (ts, dur) <> (ts', dur') then begin
                let e1 = ts +. dur and e2 = ts' +. dur' in
                let disjoint =
                  e1 <= ts' +. eps || e2 <= ts +. eps
                in
                let contained =
                  (ts >= ts' -. eps && e1 <= e2 +. eps)
                  || (ts' >= ts -. eps && e2 <= e1 +. eps)
                in
                if not (disjoint || contained) then
                  Alcotest.failf
                    "spans partially overlap on lane %g: [%g,%g) vs [%g,%g)"
                    pid ts e1 ts' e2
              end)
            xs)
        xs
    | _ -> Alcotest.fail "no traceEvents")

(* chrome_sink and a parent-lane collector installed on one pooled run
   draw the same complete spans and lane names: one renderer serves
   both. Each document is rebased to its own earliest record (the
   sink's may be a counter), so starts are compared from the first
   span; record order does not matter. *)
let test_chrome_sink_matches_collector () =
  let buf = Buffer.create 4096 in
  let collector, spans =
    Obs.Trace_ctx.collector ~lane:1 ~label:"hlts (parent)" ()
  in
  Obs.with_sink
    (Obs.chrome_sink (Buffer.add_string buf))
    (fun () ->
      Obs.with_sink collector (fun () -> ignore (Synth.run ~jobs:2 B.tseng)));
  let events doc =
    match Obs.Json.member "traceEvents" doc with
    | Some (Obs.Json.List events) -> events
    | _ -> Alcotest.fail "no traceEvents"
  in
  let completes doc =
    let xs =
      List.filter
        (fun e -> Obs.Json.member "ph" e = Some (Obs.Json.Str "X"))
        (events doc)
    in
    let ts e =
      match Obs.Json.member "ts" e with
      | Some (Obs.Json.Float f) -> f
      | Some (Obs.Json.Int i) -> float_of_int i
      | _ -> Alcotest.fail "X record without ts"
    in
    let t0 = List.fold_left (fun acc e -> Float.min acc (ts e)) infinity xs in
    List.map
      (fun e ->
        match e with
        | Obs.Json.Obj fields ->
          let rest = List.filter (fun (k, _) -> k <> "ts") fields in
          (Obs.Json.to_string (Obs.Json.Obj (List.sort compare rest)), ts e -. t0)
        | _ -> Alcotest.fail "X record is not an object")
      xs
    |> List.sort compare
  in
  let lanes doc =
    List.filter_map
      (fun e ->
        match Obs.Json.member "name" e with
        | Some (Obs.Json.Str "process_name") ->
          Some (Obs.Json.to_string e)
        | _ -> None)
      (events doc)
    |> List.sort compare
  in
  let sink_doc =
    match Obs.Json.of_string (Buffer.contents buf) with
    | Ok doc -> doc
    | Error e -> Alcotest.failf "trace does not parse: %s" e
  in
  let trace_doc = Obs.Trace_ctx.chrome_trace (spans ()) in
  let from_sink = completes sink_doc and from_trace = completes trace_doc in
  Alcotest.(check bool) "worker lanes present" true
    (List.length (lanes trace_doc) >= 2);
  Alcotest.(check int) "same number of X records" (List.length from_trace)
    (List.length from_sink);
  List.iter2
    (fun (a, ta) (b, tb) ->
      Alcotest.(check string) "X record" b a;
      if Float.abs (ta -. tb) > 0.01 then
        Alcotest.failf "%s starts at %g us, %g us in chrome_trace" a ta tb)
    from_sink from_trace;
  Alcotest.(check (list string)) "lane names" (lanes trace_doc) (lanes sink_doc)

(* --- resource telemetry and gauge merging -------------------------------- *)

let tally_of_gauges gauges =
  { Pool.counts = []; samples = []; gauges; decisions = [] }

let test_merge_gauges_unit () =
  (* max across tallies, first-seen name order *)
  let merged =
    Pool.merge_gauges
      [
        tally_of_gauges [ ("g.a", 1.0); ("g.b", 5.0) ];
        tally_of_gauges [ ("g.b", 2.0); ("g.c", -3.0) ];
        tally_of_gauges [ ("g.a", 4.0); ("g.c", -7.0) ];
      ]
  in
  Alcotest.(check (list (pair string (float 0.0))))
    "max per name, first-seen order"
    [ ("g.a", 4.0); ("g.b", 5.0); ("g.c", -3.0) ]
    merged;
  Alcotest.(check (list (pair string (float 0.0)))) "empty" []
    (Pool.merge_gauges [])

(* A task that emits a gauge whose value depends only on the item, so
   the multiset of (name, value) pairs is identical at any -j N and the
   max-merge must be byte-identical. *)
let gauging_task n =
  Obs.gauge "g.depth" (float_of_int (n mod 5));
  Obs.gauge (Printf.sprintf "g.item.%d" (n mod 3)) (float_of_int n);
  n

let merged_gauges ~jobs items =
  let sink, events = recording () in
  ignore
    (Obs.with_sink sink (fun () ->
         Pool.with_pool ~name:"t.gauge" ~jobs gauging_task @@ fun pool ->
         Pool.map pool items));
  List.filter_map
    (function
      | Obs.Gauge { name; v; _ }
        when String.length name >= 2 && String.sub name 0 2 = "g." ->
        Some (name, v)
      | _ -> None)
    (events ())

let test_gauge_merge_deterministic () =
  let items = List.init 23 Fun.id in
  let g1 = merged_gauges ~jobs:1 items in
  let g4 = merged_gauges ~jobs:4 items in
  Alcotest.(check bool) "gauges observed" true (g1 <> []);
  Alcotest.(check (list (pair string (float 0.0))))
    "merged gauges identical at -j1 and -j4" g1 g4

let test_gauge_merge_deterministic_spawned () =
  with_domains 2 test_gauge_merge_deterministic

let check_worker_resources ~name =
  let sink, events = recording () in
  let resources =
    Obs.with_sink sink (fun () ->
        Pool.with_pool ~name ~jobs:2 succ @@ fun pool ->
        ignore (Pool.map pool (List.init 10 Fun.id));
        Pool.worker_resources pool)
  in
  Alcotest.(check int) "both workers reported" 2 (List.length resources);
  let tasks =
    List.fold_left (fun acc (_, r) -> acc + r.Pool.wr_tasks) 0 resources
  in
  Alcotest.(check int) "tasks served sum to batch size" 10 tasks;
  List.iter
    (fun (w, r) ->
      Alcotest.(check bool) (Printf.sprintf "worker %d lane" w) true
        (w = 0 || w = 1);
      Alcotest.(check bool) "cpu monotone" true
        (r.Pool.wr_utime_s >= 0.0 && r.Pool.wr_stime_s >= 0.0);
      (* GC words are domain-local and must be credible *)
      Alcotest.(check bool) "minor words non-negative" true
        (r.Pool.wr_minor_words >= 0.0);
      if Sys.file_exists "/proc/self/status" then
        Alcotest.(check bool) "worker rss read" true (r.Pool.wr_rss_kb > 0))
    resources;
  (* and the parent-side rollup gauges were emitted under the pool name *)
  let gauge_names =
    List.filter_map
      (function Obs.Gauge { name; _ } -> Some name | _ -> None)
      (events ())
  in
  List.iter
    (fun suffix ->
      let n = name ^ suffix in
      Alcotest.(check bool) n true (List.mem n gauge_names))
    [ ".workers_rss_kb"; ".workers_cpu_s"; ".workers_tasks" ]

let test_worker_resources () = check_worker_resources ~name:"t.res"

let test_worker_resources_spawned () =
  with_domains 2 (fun () -> check_worker_resources ~name:"t.res.spawn")

(* Uninstrumented pools must not pay for resource snapshots: with no
   sink installed at creation, worker_resources stays empty. *)
let test_worker_resources_passive () =
  Obs.clear_sinks ();
  Pool.with_pool ~name:"t.res.off" ~jobs:2 succ @@ fun pool ->
  ignore (Pool.map pool [ 1; 2; 3; 4 ]);
  Alcotest.(check int) "no snapshots when passive" 0
    (List.length (Pool.worker_resources pool))

let test_worker_resources_passive_spawned () =
  with_domains 2 test_worker_resources_passive

(* --- parallel synthesis determinism ------------------------------------- *)

let tseng_golden = "e7d29eb3d02b6a2b3332583109dbb378"

(* Property: on 200 seeded random DFGs, [~jobs:4] reproduces the serial
   trajectory record for record. Sizes cycle through 4..20 operations —
   small enough to keep the test quick, varied enough to hit empty
   candidate lists, single-candidate iterations, widening scans and
   multi-chunk speculation. *)
let test_parallel_matches_serial_random () =
  for seed = 1 to 200 do
    let ops = 4 + (seed mod 17) in
    let dfg = B.random ~seed ~ops in
    let ctx = Printf.sprintf "seed %d ops %d" seed ops in
    let r1 = Synth.run ~jobs:1 dfg in
    let r4 = Synth.run ~jobs:4 dfg in
    Alcotest.(check string)
      (ctx ^ ": records digest")
      (Golden.records_digest r1.Synth.records)
      (Golden.records_digest r4.Synth.records);
    Alcotest.(check int) (ctx ^ ": iterations") r1.Synth.iterations r4.Synth.iterations;
    Alcotest.(check int)
      (ctx ^ ": final E")
      (State.execution_time r1.Synth.final)
      (State.execution_time r4.Synth.final)
  done

(* And on a paper benchmark with its committed golden digest: the
   pooled path must land exactly on the serial golden. *)
let test_parallel_matches_golden () =
  let r = Synth.run ~jobs:4 B.tseng in
  Alcotest.(check string)
    "tseng -j 4 hits the serial golden digest" tseng_golden
    (Golden.records_digest r.Synth.records)

(* The same golden with 4 lanes multiplexed onto 2 spawned domains. *)
let test_spawned_golden () =
  with_domains 2 (fun () ->
      let r = Synth.run ~jobs:4 B.tseng in
      Alcotest.(check string)
        "tseng digest, 4 lanes on 2 spawned domains" tseng_golden
        (Golden.records_digest r.Synth.records))

(* The random-DFG property again with 4 lanes multiplexed onto 2 spawned
   domains, so the shared-memory path is exercised even where the
   default budget runs [~jobs:4] inline. *)
let test_spawned_matches_serial_random () =
  let reference =
    List.init 200 (fun i ->
        let seed = i + 1 in
        let dfg = B.random ~seed ~ops:(4 + (seed mod 17)) in
        let r = Synth.run ~jobs:1 dfg in
        (seed, dfg, Golden.records_digest r.Synth.records))
  in
  with_domains 2 (fun () ->
      List.iter
        (fun (seed, dfg, d1) ->
          Alcotest.(check string)
            (Printf.sprintf "seed %d: domains digest" seed)
            d1
            (Golden.records_digest (Synth.run ~jobs:4 dfg).Synth.records))
        reference)

(* --- execution tiers ------------------------------------------------------ *)

(* Whatever the host, parallelism never exceeds the lane count, and a
   1-lane pool is always inline. *)
let test_parallelism_bounds () =
  Pool.with_pool ~name:"t.par" ~jobs:4 Fun.id @@ fun pool ->
  let par = Pool.parallelism pool in
  Alcotest.(check bool) "1 <= parallelism <= jobs" true
    (1 <= par && par <= Pool.jobs pool);
  Pool.with_pool ~name:"t.par1" ~jobs:1 Fun.id
  @@ fun p1 -> Alcotest.(check int) "single lane is inline" 1 (Pool.parallelism p1)

(* Force the spawned tier even on a 1-core host: with HLTS_DOMAINS=2
   the pool multiplexes its 4 lanes onto two real domains. *)
let test_forced_spawned_transport () =
  with_domains 2 (fun () ->
      Pool.with_pool ~name:"t.spawn" ~jobs:4 (fun n -> n * n) @@ fun pool ->
      Alcotest.(check int) "two real domains" 2 (Pool.parallelism pool);
      let xs = List.init 10 Fun.id in
      Alcotest.(check (list int))
        "squares through spawned domains"
        (List.map (fun n -> n * n) xs)
        (Pool.map pool xs))

(* Force the inline tier even on a multicore host: with HLTS_DOMAINS=1
   four lanes run on the caller's domain and land on the same results
   and golden digest. *)
let test_forced_inline () =
  with_domains 1 (fun () ->
      (Pool.with_pool ~name:"t.inline" ~jobs:4 (fun n -> n * n) @@ fun pool ->
       Alcotest.(check int) "no spawned domain" 1 (Pool.parallelism pool);
       let xs = List.init 10 Fun.id in
       Alcotest.(check (list int))
         "squares run inline"
         (List.map (fun n -> n * n) xs)
         (Pool.map pool xs));
      let r = Synth.run ~jobs:4 B.tseng in
      Alcotest.(check string)
        "tseng digest, 4 inline lanes" tseng_golden
        (Golden.records_digest r.Synth.records))

(* Pools never nest: a worker asking for a pool of its own is refused,
   and the refusal reaches the parent as the task's failure. *)
let test_nesting_refused () =
  Pool.with_pool ~name:"t.outer" ~jobs:2
    (fun n ->
      Pool.with_pool ~name:"t.inner" ~jobs:2 succ (fun p -> Pool.map p [ n ]))
  @@ fun pool ->
  check_fails ~substring:"nested pool" (fun () -> Pool.map pool [ 1 ])

(* --- the Engine's sweep fan-out ----------------------------------------- *)

let items = List.init 23 (fun i -> i)

let test_fan_out_is_list_map () =
  let f x = (x * x) + 1 in
  Alcotest.(check (list int)) "jobs=1" (List.map f items)
    (Engine.fan_out ~jobs:1 f items);
  Alcotest.(check (list int)) "jobs=4" (List.map f items)
    (Engine.fan_out ~jobs:4 f items);
  Alcotest.(check (list int)) "more jobs than items" (List.map f items)
    (Engine.fan_out ~jobs:64 f items)

let test_fan_out_empty_and_single () =
  Alcotest.(check (list int)) "empty" [] (Engine.fan_out ~jobs:4 (fun x -> x) []);
  Alcotest.(check (list int)) "single" [ 7 ]
    (Engine.fan_out ~jobs:4 (fun x -> x) [ 7 ])

let test_fan_out_order_under_skew () =
  (* make early items slow so lanes finish out of order *)
  let f x =
    if x < 4 then Unix.sleepf 0.05;
    x * 10
  in
  Alcotest.(check (list int)) "order kept" (List.map (fun x -> x * 10) items)
    (Engine.fan_out ~jobs:8 f items)

let test_fan_out_propagates_errors () =
  let f x = if x = 11 then failwith "boom" else x in
  check_fails ~substring:"boom" (fun () -> Engine.fan_out ~jobs:4 f items)

let test_default_jobs_env () =
  (* default_jobs reads HLTS_JOBS; unset/garbage means serial *)
  Alcotest.(check bool) "positive" true (Pool.default_jobs () >= 1)

let datapath bits =
  let d = Hlts_dfg.Benchmarks.toy in
  let s = Hlts_sched.Basic.asap_exn (Hlts_sched.Constraints.of_dfg d) in
  let binding = Hlts_alloc.Binding.allocate d s in
  let etpn = Hlts_etpn.Etpn.build_exn d s binding in
  Hlts_netlist.Expand.circuit etpn ~bits

let test_atpg_through_pool () =
  let run seed =
    let config = { Atpg.default_config with Atpg.seed } in
    let r = Atpg.run ~config (datapath 4) in
    (r.Atpg.coverage, r.Atpg.effort, r.Atpg.detect_digest)
  in
  let seeds = [ 1; 2; 3 ] in
  let serial = List.map run seeds in
  let pooled = Engine.fan_out ~jobs:3 run seeds in
  Alcotest.(check bool) "pooled = serial" true (serial = pooled)

let () =
  Alcotest.run "hlts_pool"
    [
      ( "pool",
        [
          Alcotest.test_case "map round-trip" `Quick test_map_roundtrip;
          Alcotest.test_case "out-of-order await" `Quick test_out_of_order_await;
          Alcotest.test_case "oversized payloads" `Quick test_oversized_payloads;
          Alcotest.test_case "zero-copy sharing" `Quick test_zero_copy;
          Alcotest.test_case "worker_index lanes" `Quick test_worker_index_lanes;
          Alcotest.test_case "task exception" `Quick test_task_exception;
          Alcotest.test_case "broadcast poisoning" `Quick
            test_broadcast_poisoning;
          Alcotest.test_case "shutdown rejects" `Quick test_shutdown_rejects;
        ] );
      (* the "spawned" variants pin two spawned domains *)
      ( "observability",
        [
          Alcotest.test_case "worker spans re-stamped" `Quick
            test_worker_span_restamp;
          Alcotest.test_case "worker span re-stamp" `Quick
            test_worker_span_restamp_spawned;
          Alcotest.test_case "chrome trace worker lanes" `Quick
            test_chrome_worker_lanes;
          Alcotest.test_case "chrome trace spans nest" `Quick
            test_chrome_span_nesting;
          Alcotest.test_case "gauge merge deterministic" `Quick
            test_gauge_merge_deterministic_spawned;
          Alcotest.test_case "worker resources" `Quick
            test_worker_resources_spawned;
          Alcotest.test_case "passive pool skips snapshots" `Quick
            test_worker_resources_passive_spawned;
          Alcotest.test_case "chrome sink = collector trace" `Quick
            test_chrome_sink_matches_collector;
        ] );
      ( "resources",
        [
          Alcotest.test_case "merge_gauges max semantics" `Quick
            test_merge_gauges_unit;
          Alcotest.test_case "gauge merge deterministic across -j" `Quick
            test_gauge_merge_deterministic;
          Alcotest.test_case "worker resources accounted" `Quick
            test_worker_resources;
          Alcotest.test_case "passive pool skips sampling" `Quick
            test_worker_resources_passive;
        ] );
      ( "determinism",
        [
          Alcotest.test_case "200 random DFGs, -j4 = -j1" `Slow
            test_parallel_matches_serial_random;
          Alcotest.test_case "tseng -j4 hits golden" `Quick
            test_parallel_matches_golden;
          Alcotest.test_case "tseng golden digest" `Quick test_spawned_golden;
          Alcotest.test_case "200 random DFGs: seq = domains" `Quick
            test_spawned_matches_serial_random;
        ] );
      ( "backend",
        [
          Alcotest.test_case "parallelism bounds" `Quick test_parallelism_bounds;
          Alcotest.test_case "forced spawned transport (HLTS_DOMAINS=2)" `Quick
            test_forced_spawned_transport;
          Alcotest.test_case "forced inline (HLTS_DOMAINS=1)" `Quick
            test_forced_inline;
          Alcotest.test_case "nesting refused" `Quick test_nesting_refused;
        ] );
      ( "par",
        [
          Alcotest.test_case "map = List.map" `Quick test_fan_out_is_list_map;
          Alcotest.test_case "empty/single" `Quick test_fan_out_empty_and_single;
          Alcotest.test_case "order under skew" `Quick
            test_fan_out_order_under_skew;
          Alcotest.test_case "errors propagate" `Quick
            test_fan_out_propagates_errors;
          Alcotest.test_case "default jobs" `Quick test_default_jobs_env;
          Alcotest.test_case "atpg through the pool" `Quick
            test_atpg_through_pool;
        ] );
    ]
