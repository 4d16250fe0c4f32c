module Dfg = Hlts_dfg.Dfg
module B = Hlts_dfg.Benchmarks
module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module State = Hlts_synth.State
module Etpn = Hlts_etpn.Etpn
module Testability = Hlts_testability.Testability
module Atpg = Hlts_atpg.Atpg
module Obs = Hlts_obs
module Json = Hlts_obs.Json
module Pool = Hlts_pool.Pool

(* Bump whenever a pipeline change may alter any result byte for the
   same inputs: every digest is salted with it, so old disk-cache
   entries are orphaned instead of replayed wrongly. *)
let schema = "hlts-engine/2"

type spec = {
  bench : string;
  dfg : Dfg.t;
  approach : Flows.approach;
  bits : int;
  params : Synth.params;
  atpg : Atpg.config;
}

(* Every ATPG-aborted fault walks every unrolling depth up to
   [max_frames], re-sweeping all frames at each, so its cost grows with
   the square of the bound; one request for thousands of frames would
   stall the single-threaded daemon for every caller. The paper tables
   use 5. *)
let max_frames_limit = 64

(* Synthesis builds a dense transitive-closure row per operation
   ([Constraints.of_dfg], n^2/8 bytes): 20000 operations took 4.7 s and
   about 50 MB before synthesis started, so rnd-s1-n100000 would need
   about 1.25 GB. The largest design the repository synthesizes is
   rnd-b, 170 operations; this admits six times that, at 128 KB of
   closure. *)
let max_ops_limit = 1024

(* Expansion and ATPG grow with the width, array multipliers with its
   square. The paper implements 4, 8 and 16 bit; this leaves one
   doubling above. *)
let max_bits_limit = 32

let range_error name v lo hi =
  if hi = max_int then Printf.sprintf "field %S is %d, must be >= %d" name v lo
  else Printf.sprintf "field %S is %d, must be in %d..%d" name v lo hi

(* The one range check every spec passes, built here or decoded from the
   wire: an out-of-range budget would otherwise either escape as a raw
   [Invalid_argument] from deep in the ATPG or alias an in-range spec
   under a second digest, and an oversized design would stall the
   single-threaded daemon for every caller. *)
let check s =
  let a = s.atpg in
  let ranges =
    [
      ("bits", s.bits, 1, max_bits_limit);
      ("random_lanes", a.Atpg.random_lanes, 1, 64);
      ("random_cycles", a.Atpg.random_cycles, 0, max_int);
      ("random_batches", a.Atpg.random_batches, 0, max_int);
      ("max_frames", a.Atpg.max_frames, 0, max_frames_limit);
      ("max_backtracks", a.Atpg.max_backtracks, 0, max_int);
      ("ops", List.length s.dfg.Dfg.ops, 0, max_ops_limit);
    ]
  in
  match List.find_opt (fun (_, v, lo, hi) -> v < lo || v > hi) ranges with
  | None -> Ok s
  | Some (name, v, lo, hi) -> Error (range_error name v lo hi)

(* A benchmark by name; a synthetic name over the operation bound is
   refused before its design is generated. *)
let find_bench name =
  match B.synthetic_ops name with
  | Some ops when ops > max_ops_limit ->
    Error (range_error "ops" ops 0 max_ops_limit)
  | _ -> B.find_result name

let spec ?params ?atpg ?dfg ~bench ~approach ~bits () =
  match
    match dfg with Some d -> Ok d | None -> find_bench bench
  with
  | Error _ as e -> e
  | Ok dfg ->
    check
      {
        bench;
        dfg;
        approach;
        bits;
        params = Option.value ~default:(Eval.params_for_bits bits) params;
        atpg = Option.value ~default:Atpg.default_config atpg;
      }

type request =
  | Synth of spec
  | Testability of spec
  | Atpg of spec
  | Sweep of spec list

type synth_summary = {
  sy_schedule_length : int;
  sy_execution_time : int;
  sy_n_registers : int;
  sy_n_fus : int;
  sy_n_mux : int;
  sy_area_mm2 : float;
  sy_seq_depth : float;
  sy_iterations : int;
}

type testability_summary = {
  ts_registers : (int * Testability.measures) list;
  ts_fus : (int * Testability.measures) list;
  ts_seq_depth : float;
}

type response =
  | Synth_done of synth_summary
  | Testability_done of testability_summary
  | Row of Eval.row
  | Rows of Eval.row list

type result = {
  digest : string;
  response : response;
  journal : Obs.Journal.event list;
  response_digest : string;
  journal_digest : string;
  cached : bool;
  probe_s : float;
  compute_s : float;
}

(* --- digests -------------------------------------------------------- *)

let strategy_name = function
  | Hlts_synth.Candidates.Balance -> "balance"
  | Hlts_synth.Candidates.Connectivity -> "connectivity"

let stop_name = function
  | Synth.Cost_improving -> "cost_improving"
  | Synth.Exhaustive -> "exhaustive"

(* The primitive behind Printf's [%h]: the same bytes, without
   interpreting a format on every request. *)
external hexstring_of_float : float -> int -> char -> string
  = "caml_hexstring_of_float"

(* Every float is rendered as [%h] would (hex, bit-exact) — the digest
   must not depend on decimal rounding. The keys are appended to one
   buffer per request. *)
let add_params_key buf (p : Synth.params) =
  let add k v =
    Buffer.add_string buf k;
    Buffer.add_string buf v
  in
  add "k=" (string_of_int p.Synth.k);
  add ";alpha=" (hexstring_of_float p.Synth.alpha (-6) '-');
  add ";beta=" (hexstring_of_float p.Synth.beta (-6) '-');
  add ";pbits=" (string_of_int p.Synth.bits);
  add ";strategy=" (strategy_name p.Synth.strategy);
  add ";stop=" (stop_name p.Synth.stop);
  add ";lat=" (hexstring_of_float p.Synth.latency_factor (-6) '-');
  add ";maxit=" (string_of_int p.Synth.max_iterations)

let add_atpg_key buf (c : Atpg.config) =
  let add k v =
    Buffer.add_string buf k;
    Buffer.add_string buf (string_of_int v)
  in
  add "seed=" c.Atpg.seed;
  add ";lanes=" c.Atpg.random_lanes;
  add ";cycles=" c.Atpg.random_cycles;
  add ";batches=" c.Atpg.random_batches;
  add ";frames=" c.Atpg.max_frames;
  add ";backtracks=" c.Atpg.max_backtracks;
  Buffer.add_string buf ";collapse=";
  Buffer.add_string buf (string_of_bool c.Atpg.collapse_gate_inputs)

let md5 s = Digest.to_hex (Digest.string s)

let spec_digest ~op ?(with_atpg = true) s =
  let buf = Buffer.create 256 in
  List.iter (Buffer.add_string buf)
    [
      schema; ";op="; op; ";dfg="; Dfg.digest s.dfg; ";approach=";
      Flows.approach_name s.approach; ";bits="; string_of_int s.bits; ";";
    ];
  add_params_key buf s.params;
  if with_atpg then begin
    Buffer.add_char buf ';';
    add_atpg_key buf s.atpg
  end;
  md5 (Buffer.contents buf)

(* The (DFG, approach, params) digest the synthesized outcome is keyed
   by: shared by every evaluation width and independent of the ATPG
   budget. *)
let outcome_digest s = spec_digest ~op:"outcome" ~with_atpg:false s

let request_digest = function
  | Synth s -> spec_digest ~op:"synth" ~with_atpg:false s
  | Testability s -> spec_digest ~op:"testability" ~with_atpg:false s
  | Atpg s -> spec_digest ~op:"atpg" s
  | Sweep cells ->
    md5
      (schema ^ ";op=sweep;"
      ^ String.concat ","
          (List.map (fun s -> spec_digest ~op:"atpg" s) cells))

let journal_digest events =
  md5
    (String.concat "\n"
       (List.map (fun e -> Json.to_string (Obs.Journal.encode e)) events))

(* --- wire codecs ---------------------------------------------------- *)

let row_to_json (r : Eval.row) =
  Json.Obj
    [
      ("approach", Json.Str (Flows.approach_name r.Eval.approach));
      ("bits", Json.Int r.Eval.bits);
      ("schedule_length", Json.Int r.Eval.schedule_length);
      ("n_registers", Json.Int r.Eval.n_registers);
      ("n_fus", Json.Int r.Eval.n_fus);
      ("n_mux", Json.Int r.Eval.n_mux);
      ( "module_allocation",
        Json.List (List.map (fun s -> Json.Str s) r.Eval.module_allocation) );
      ( "register_allocation",
        Json.List (List.map (fun s -> Json.Str s) r.Eval.register_allocation)
      );
      ("fault_coverage_pct", Json.Float r.Eval.fault_coverage_pct);
      ("tg_effort", Json.Int r.Eval.tg_effort);
      ("test_cycles", Json.Int r.Eval.test_cycles);
      ("area_mm2", Json.Float r.Eval.area_mm2);
      ("seq_depth", Json.Float r.Eval.seq_depth);
      ("gate_count", Json.Int r.Eval.gate_count);
      ("detect_digest", Json.Str r.Eval.detect_digest);
    ]
(* The wall-clock fields (tg_seconds and friends) are deliberately
   absent: the digested response is deterministic content, and the
   digest computed over it must match between a cold run and a cache
   hit. *)

let measures_json ms =
  Json.List
    (List.map
       (fun (id, m) ->
         Json.Obj
           [
             ("id", Json.Int id);
             ("cc", Json.Float m.Testability.cc);
             ("sc", Json.Float m.Testability.sc);
             ("co", Json.Float m.Testability.co);
             ("so", Json.Float m.Testability.so);
           ])
       ms)

let response_to_json = function
  | Synth_done s ->
    Json.Obj
      [
        ("kind", Json.Str "synth");
        ("schedule_length", Json.Int s.sy_schedule_length);
        ("execution_time", Json.Int s.sy_execution_time);
        ("n_registers", Json.Int s.sy_n_registers);
        ("n_fus", Json.Int s.sy_n_fus);
        ("n_mux", Json.Int s.sy_n_mux);
        ("area_mm2", Json.Float s.sy_area_mm2);
        ("seq_depth", Json.Float s.sy_seq_depth);
        ("iterations", Json.Int s.sy_iterations);
      ]
  | Testability_done t ->
    Json.Obj
      [
        ("kind", Json.Str "testability");
        ("registers", measures_json t.ts_registers);
        ("fus", measures_json t.ts_fus);
        ("seq_depth", Json.Float t.ts_seq_depth);
      ]
  | Row r -> Json.Obj [ ("kind", Json.Str "row"); ("row", row_to_json r) ]
  | Rows rs ->
    Json.Obj
      [
        ("kind", Json.Str "rows");
        ("rows", Json.List (List.map row_to_json rs));
      ]

let response_digest r = md5 (Json.to_string (response_to_json r))

(* A result-tier entry: one answer sealed with its two digests. Both
   are pure functions of the answer, so they are computed once, when
   the answer is built, and a hit serves them without re-encoding the
   response or the journal. *)
type entry = {
  e_response : response;
  e_journal : Obs.Journal.event list;
  e_response_digest : string;
  e_journal_digest : string;
}

let seal response journal =
  {
    e_response = response;
    e_journal = journal;
    e_response_digest = response_digest response;
    e_journal_digest = journal_digest journal;
  }

let spec_to_json s =
  let p = s.params and a = s.atpg in
  Json.Obj
    [
      ("bench", Json.Str s.bench);
      ("approach", Json.Str (Flows.approach_name s.approach));
      ("bits", Json.Int s.bits);
      ( "params",
        Json.Obj
          [
            ("k", Json.Int p.Synth.k);
            ("alpha", Json.Float p.Synth.alpha);
            ("beta", Json.Float p.Synth.beta);
            ("bits", Json.Int p.Synth.bits);
            ("strategy", Json.Str (strategy_name p.Synth.strategy));
            ("stop", Json.Str (stop_name p.Synth.stop));
            ("latency_factor", Json.Float p.Synth.latency_factor);
            ("max_iterations", Json.Int p.Synth.max_iterations);
          ] );
      ( "atpg",
        Json.Obj
          [
            ("seed", Json.Int a.Atpg.seed);
            ("random_lanes", Json.Int a.Atpg.random_lanes);
            ("random_cycles", Json.Int a.Atpg.random_cycles);
            ("random_batches", Json.Int a.Atpg.random_batches);
            ("max_frames", Json.Int a.Atpg.max_frames);
            ("max_backtracks", Json.Int a.Atpg.max_backtracks);
            ("collapse_gate_inputs", Json.Bool a.Atpg.collapse_gate_inputs);
          ] );
    ]

let ( let* ) = Result.bind

let spec_of_json j =
  let* bench = Json.field "bench" Json.string j in
  let* approach_name = Json.field "approach" Json.string j in
  let* approach =
    match Flows.approach_of_string approach_name with
    | Some a -> Ok a
    | None -> Error (Printf.sprintf "unknown approach %S" approach_name)
  in
  let* bits = Json.field "bits" Json.int j in
  let* dfg = find_bench bench in
  let dp = Eval.params_for_bits bits in
  let* params =
    match Json.member "params" j with
    | None -> Ok dp
    | Some pj ->
      let* k = Json.field_default "k" Json.int ~default:dp.Synth.k pj in
      let* alpha =
        Json.field_default "alpha" Json.number ~default:dp.Synth.alpha pj
      in
      let* beta =
        Json.field_default "beta" Json.number ~default:dp.Synth.beta pj
      in
      let* pbits =
        Json.field_default "bits" Json.int ~default:dp.Synth.bits pj
      in
      let* strategy =
        let* s =
          Json.field_default "strategy" Json.string
            ~default:(strategy_name dp.Synth.strategy) pj
        in
        match s with
        | "balance" -> Ok Hlts_synth.Candidates.Balance
        | "connectivity" -> Ok Hlts_synth.Candidates.Connectivity
        | other -> Error (Printf.sprintf "unknown strategy %S" other)
      in
      let* stop =
        let* s =
          Json.field_default "stop" Json.string
            ~default:(stop_name dp.Synth.stop) pj
        in
        match s with
        | "cost_improving" -> Ok Synth.Cost_improving
        | "exhaustive" -> Ok Synth.Exhaustive
        | other -> Error (Printf.sprintf "unknown stop rule %S" other)
      in
      let* latency_factor =
        Json.field_default "latency_factor" Json.number
          ~default:dp.Synth.latency_factor pj
      in
      let* max_iterations =
        Json.field_default "max_iterations" Json.int
          ~default:dp.Synth.max_iterations pj
      in
      Ok
        {
          Synth.k;
          alpha;
          beta;
          bits = pbits;
          strategy;
          stop;
          latency_factor;
          max_iterations;
        }
  in
  let da = Atpg.default_config in
  let* atpg =
    match Json.member "atpg" j with
    | None -> Ok da
    | Some aj ->
      let* seed = Json.field_default "seed" Json.int ~default:da.Atpg.seed aj in
      let* random_lanes =
        Json.field_default "random_lanes" Json.int
          ~default:da.Atpg.random_lanes aj
      in
      let* random_cycles =
        Json.field_default "random_cycles" Json.int
          ~default:da.Atpg.random_cycles aj
      in
      let* random_batches =
        Json.field_default "random_batches" Json.int
          ~default:da.Atpg.random_batches aj
      in
      let* max_frames =
        Json.field_default "max_frames" Json.int ~default:da.Atpg.max_frames aj
      in
      let* max_backtracks =
        Json.field_default "max_backtracks" Json.int
          ~default:da.Atpg.max_backtracks aj
      in
      let* collapse_gate_inputs =
        Json.field_default "collapse_gate_inputs" Json.bool
          ~default:da.Atpg.collapse_gate_inputs aj
      in
      Ok
        {
          Atpg.seed;
          random_lanes;
          random_cycles;
          random_batches;
          max_frames;
          max_backtracks;
          collapse_gate_inputs;
        }
  in
  check { bench; dfg; approach; bits; params; atpg }

let request_to_json = function
  | Synth s -> Json.Obj [ ("op", Json.Str "synth"); ("spec", spec_to_json s) ]
  | Testability s ->
    Json.Obj [ ("op", Json.Str "testability"); ("spec", spec_to_json s) ]
  | Atpg s -> Json.Obj [ ("op", Json.Str "atpg"); ("spec", spec_to_json s) ]
  | Sweep cells ->
    Json.Obj
      [
        ("op", Json.Str "sweep");
        ("cells", Json.List (List.map spec_to_json cells));
      ]

let request_of_json j =
  let* op = Json.field "op" Json.string j in
  match op with
  | "synth" | "testability" | "atpg" ->
    let* sj = Json.field "spec" Option.some j in
    let* s = spec_of_json sj in
    Ok
      (match op with
      | "synth" -> Synth s
      | "testability" -> Testability s
      | _ -> Atpg s)
  | "sweep" -> (
    match Json.member "cells" j with
    | Some (Json.List cells) ->
      let* specs =
        List.fold_left
          (fun acc cj ->
            let* acc = acc in
            let* s = spec_of_json cj in
            Ok (s :: acc))
          (Ok []) cells
      in
      Ok (Sweep (List.rev specs))
    | Some _ -> Error "field \"cells\" must be a list"
    | None -> Error "missing field \"cells\"")
  | other -> Error (Printf.sprintf "unknown op %S" other)

(* --- execution ------------------------------------------------------ *)

type t = {
  cache : Cache.t;
  jobs : int option;
}

let create ?cache ?jobs () =
  { cache = (match cache with Some c -> c | None -> Cache.create ()); jobs }

let cache t = t.cache

(* Captures the decision-journal events emitted while [f] runs —
   including those replayed from pool-worker tallies — without
   disturbing any ambient sink. *)
let capture_journal f =
  let events = ref [] in
  let sink =
    {
      Obs.emit =
        (fun e ->
          match e with
          | Obs.Decision { d; _ } -> events := d :: !events
          | _ -> ());
      flush = (fun () -> ());
    }
  in
  let r = Obs.with_sink sink f in
  (r, List.rev !events)

(* The synthesized outcome plus its decision journal, computed at most
   once per (DFG, approach, params) and held in the memory tier only —
   outcomes embed memoized derived views and must not be marshalled. *)
let outcome t ?jobs s =
  let key = outcome_digest s in
  match Cache.find t.cache ~kind:"outcome" key with
  | Some (o, journal) -> (o, journal, true)
  | None ->
    let o, journal =
      capture_journal (fun () ->
          Flows.synthesize ~params:s.params ?jobs s.approach s.dfg)
    in
    Cache.store t.cache ~mem_only:true ~kind:"outcome" key (o, journal);
    (o, journal, false)

(* Raw ATPG tier: keyed by the expanded circuit's content, so identical
   gate-level designs reached through different synthesis wrappers
   share fault-simulation work. Netlists are immutable plain data; the
   [No_sharing] marshalling is their normal byte form. *)
let netlist_digest circuit =
  md5 (Marshal.to_string circuit [ Marshal.No_sharing ])

let atpg_result t ?jobs s circuit =
  let key =
    let buf = Buffer.create 256 in
    List.iter (Buffer.add_string buf)
      [ schema; ";op=atpgraw;netlist="; netlist_digest circuit; ";" ];
    add_atpg_key buf s.atpg;
    md5 (Buffer.contents buf)
  in
  match Cache.find t.cache ~kind:"atpg" key with
  | Some r -> r
  | None ->
    let r = Atpg.run ~config:s.atpg ?jobs circuit in
    Cache.store t.cache ~kind:"atpg" key r;
    r

let synth_summary s (o : Flows.outcome) =
  let stats = Etpn.stats o.Flows.etpn in
  {
    sy_schedule_length =
      Hlts_sched.Schedule.length o.Flows.state.State.schedule;
    sy_execution_time = State.execution_time o.Flows.state;
    sy_n_registers = stats.Etpn.n_registers;
    sy_n_fus = stats.Etpn.n_fus;
    sy_n_mux = stats.Etpn.n_mux_slices;
    sy_area_mm2 = State.area o.Flows.state ~bits:s.bits;
    sy_seq_depth = Testability.seq_depth_total (State.analysis o.Flows.state);
    sy_iterations = List.length o.Flows.records;
  }

let testability_summary (o : Flows.outcome) =
  let a = State.analysis o.Flows.state in
  {
    ts_registers = Testability.register_measures a;
    ts_fus = Testability.fu_measures a;
    ts_seq_depth = Testability.seq_depth_total a;
  }

(* One complete [Atpg] cell computed in-process (the serve / single
   request path — the [atpg] tier is consulted between expansion and
   fault grading). *)
let atpg_row t ?jobs s =
  let o, journal, _ = outcome t s in
  let circuit = Hlts_netlist.Expand.circuit o.Flows.etpn ~bits:s.bits in
  let r = atpg_result t ?jobs s circuit in
  (Eval.row_of_atpg o ~bits:s.bits r, journal)

(* [List.map f xs] computed by up to [jobs] pool lanes, results in
   input order. Serial — exactly [List.map] — at one job, for fewer
   than two items, and inside a pool worker (pools never nest). *)
let fan_out ?jobs f xs =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  match xs with
  | _ when jobs <= 1 || Pool.in_worker () -> List.map f xs
  | [] | [ _ ] -> List.map f xs
  | _ ->
    Pool.with_pool ~name:"sweep.pool" ~jobs:(min jobs (List.length xs)) f
      (fun pool -> Pool.map pool xs)

(* A sweep fans the missing cells out over the worker pool exactly as
   the old [Experiments.table_rows] did: outcomes are synthesized
   in-process (they are shared across widths), then each cell evaluates
   its (outcome, width) on a pool lane. Each cell is probed, and each
   computed cell stored, under its [Atpg] request digest, so a later
   [Atpg] request or an overlapping sweep hits it; cached cells skip
   the pool entirely. Returns the rows, their concatenated journals and
   whether every cell was cached. *)
let run_sweep t ~find cells =
  let cell_of_entry e =
    match e.e_response with Row r -> Some (r, e.e_journal) | _ -> None
  in
  let keyed =
    List.map
      (fun s ->
        let key = spec_digest ~op:"atpg" s in
        (s, key, Option.bind (find key) cell_of_entry))
      cells
  in
  let missing =
    List.filter_map
      (fun (s, key, hit) ->
        match hit with
        | Some _ -> None
        | None ->
          let o, journal, _ = outcome t s in
          Some (s, key, o, journal))
      keyed
  in
  let computed =
    List.map2
      (fun (_s, key, _o, journal) row ->
        Cache.store t.cache ~kind:"result" key (seal (Row row) journal);
        (key, (row, journal)))
      missing
      (fan_out ?jobs:t.jobs
         (fun (s, o) ->
           Eval.evaluate_outcome ~atpg:s.atpg o ~bits:s.bits)
         (List.map (fun (s, _, o, _) -> (s, o)) missing))
  in
  let rows_journals =
    List.map
      (fun (_, key, hit) ->
        match hit with Some cell -> cell | None -> List.assoc key computed)
      keyed
  in
  ( Rows (List.map fst rows_journals),
    List.concat_map snd rows_journals,
    missing = [] )

(* Every request, a sweep included, is one result-tier entry under its
   own request digest: a hit is a single lookup that re-encodes
   nothing. A miss computes the answer, seals it and stores it. *)
let run t req =
  Obs.count "engine.requests";
  let t0 = Obs.Clock.now_ns () in
  (* Result-tier probe wall, summed across a sweep's cells: the
     "cache" phase of the daemon's per-request breakdown. Timing a
     cache probe never changes what it returns, so this stays outside
     every determinism contract. *)
  let probe_ns = ref 0L in
  let find key : entry option =
    let p0 = Obs.Clock.now_ns () in
    let r = Cache.find t.cache ~kind:"result" key in
    probe_ns := Int64.add !probe_ns (Int64.sub (Obs.Clock.now_ns ()) p0);
    r
  in
  let digest = request_digest req in
  let entry, cached =
    match find digest with
    | Some e -> (e, true)
    | None ->
      let response, journal, cached =
        match req with
        | Synth s ->
          let o, journal, _ = outcome t ?jobs:t.jobs s in
          (Synth_done (synth_summary s o), journal, false)
        | Testability s ->
          let o, journal, _ = outcome t s in
          (Testability_done (testability_summary o), journal, false)
        | Atpg s ->
          let row, journal = atpg_row t ?jobs:t.jobs s in
          (Row row, journal, false)
        | Sweep cells -> run_sweep t ~find cells
      in
      let e = seal response journal in
      Cache.store t.cache ~kind:"result" digest e;
      (e, cached)
  in
  Obs.count (if cached then "engine.cache_hits" else "engine.cache_misses");
  let total_s = Obs.Clock.seconds_since t0 in
  let probe_s = Int64.to_float !probe_ns /. 1e9 in
  {
    digest;
    response = entry.e_response;
    journal = entry.e_journal;
    response_digest = entry.e_response_digest;
    journal_digest = entry.e_journal_digest;
    cached;
    probe_s;
    compute_s = Float.max 0.0 (total_s -. probe_s);
  }
