(* The daemon workloads: [Serve.run] daemons in processes of their own,
   driven from this process by one client on one connection in a closed
   loop: the next request goes out when the reply is in. serve-hot asks
   only for keys the memory tier holds, so there is no compute, only
   decode, digests, the cache probe, encode and the socket. serve-mixed
   replays the daemon-restart scenario of [bench --json-serve]: the
   table sweeps answered by a restarted daemon, first from the disk
   tier, then from the memory tier. *)

module Obs = Hlts_obs
module Json = Hlts_obs.Json
module Trace_ctx = Hlts_obs.Trace_ctx
module Engine = Hlts_eval.Engine
module Cache = Hlts_eval.Cache
module Serve = Hlts_eval.Serve
module Client = Hlts_eval.Client
module Wire = Hlts_eval.Wire
module Top = Hlts_eval.Top
module Rng = Hlts_util.Rng
open Measure

(* --- the daemon ----------------------------------------------------------- *)

external pin_to_current_cpu : unit -> int = "yardstick_pin_to_current_cpu"

external term_with_parent : unit -> int = "yardstick_term_with_parent"

(* A daemon is the running executable started again with [daemon_flag],
   so its resident set is its own: a forked copy of the runner would
   count the runner's heap in the daemon's peak. Every executable that
   starts daemons calls [serve_if_asked] before anything else. The
   daemon runs [hlts serve]'s defaults (512 memory entries) at one
   job. *)
let daemon_flag = "--yardstick-daemon"

let serve_if_asked () =
  match Sys.argv with
  | [| _; flag; parent; socket; cache_dir; log |] when flag = daemon_flag ->
    ignore (term_with_parent ());
    if Unix.getppid () <> int_of_string parent then exit 1;
    let access_log =
      if log = "-" then None
      else
        let fd =
          Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
        in
        Some
          (fun line -> ignore (Unix.write_substring fd line 0 (String.length line)))
    in
    (try
       Serve.run
         {
           Serve.addr = Wire.Unix_path socket;
           cache = Cache.create ~dir:(Some cache_dir) ();
           jobs = Some 1;
           backend = None;
           queue_limit = 64;
           log = ignore;
           access_log;
           metrics = None;
           slow_k = 8;
         }
     with _ -> exit 1);
    exit 0
  | _ -> ()

type daemon = {
  pid : int;
  addr : Wire.addr;
  cache_dir : string;
  access_log : string option;
  mutable reaped : bool;
}

let op name = Json.Obj [ ("op", Json.Str name) ]

(* A daemon listening in [dir] over [cache_dir]; its output goes to
   stderr, never into the result on stdout. *)
let start_daemon ~dir ~cache_dir ~access_log =
  let socket = Filename.concat dir "s.sock" in
  let access_log =
    if access_log then Some (Filename.concat dir "access.log") else None
  in
  let exe = Sys.executable_name in
  let pid =
    Unix.create_process exe
      [|
        exe; daemon_flag; string_of_int (Unix.getpid ()); socket; cache_dir;
        Option.value ~default:"-" access_log;
      |]
      Unix.stdin Unix.stderr Unix.stderr
  in
  { pid; addr = Wire.Unix_path socket; cache_dir; access_log; reaped = false }

let reap d =
  if not d.reaped then begin
    d.reaped <- true;
    try ignore (Unix.waitpid [] d.pid) with Unix.Unix_error _ -> ()
  end

let kill d =
  if not d.reaped then (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap d

let connect d =
  let rec go tries =
    match Client.connect d.addr with
    | Ok c -> c
    | Error e ->
      if tries = 0 || fst (Unix.waitpid [ Unix.WNOHANG ] d.pid) <> 0 then
        failwith ("the daemon never came up: " ^ e)
      else begin
        Unix.sleepf 0.002;
        go (tries - 1)
      end
  in
  go 5000

let rpc c env =
  match Client.rpc c env with
  | Ok reply -> Client.ok reply
  | Error e -> Error e

let rpc_exn c env =
  match rpc c env with Ok j -> j | Error e -> failwith e

let stop d c =
  ignore (rpc c (op "shutdown"));
  Client.close c;
  reap d

(* The daemons of one run, under one scratch directory: [start] starts a
   daemon in a fresh directory of its own, over [cache_dir] or a fresh
   cache, and connects to it. Every daemon is killed and reaped on the
   way out, whatever happens.

   Client and daemons share the CPU the run starts on: they take turns
   anyway, and a wake-up on the same CPU is cheaper than one across
   CPUs (on a 2-vCPU virtual machine, pinned serve-hot round trips had a
   p50 of 0.33 ms against 0.39 ms free, ten interleaved runs each). *)
let with_daemons f =
  ignore (pin_to_current_cpu ());
  with_work_dir "serve" @@ fun work ->
  let live = ref [] and n = ref 0 in
  let start ?cache_dir ~access_log () =
    incr n;
    let dir = Filename.concat work (string_of_int !n) in
    Unix.mkdir dir 0o755;
    let cache_dir =
      Option.value cache_dir ~default:(Filename.concat dir "cache")
    in
    let d = start_daemon ~dir ~cache_dir ~access_log in
    live := d :: !live;
    let c = connect d in
    ignore (rpc_exn c (op "ping"));
    (d, c)
  in
  Fun.protect ~finally:(fun () -> List.iter kill !live) (fun () -> f start)

(* --- requests ------------------------------------------------------------- *)

(* What a reply must carry: the digests of the set-up's answer to the
   same question. *)
type expect = { response : string; journal : string }

let expect_of j =
  {
    response = json_str "response_digest" j;
    journal = json_str "journal_digest" j;
  }

type request = { env : Json.t; want : expect; label : string }

let check r reply =
  match reply with
  | Error e -> [ Printf.sprintf "%s: %s" r.label e ]
  | Ok j ->
    (if Json.member "cached" j = Some (Json.Bool true) then []
     else [ r.label ^ ": not answered from the cache" ])
    @
    if expect_of j = r.want then []
    else [ Printf.sprintf "%s: reply digests differ from the expected" r.label ]

(* Each key asked once, remembering the request digest and the answer's
   digests. *)
let fill_all envs c =
  Array.map
    (fun env ->
      let j = rpc_exn c env in
      (json_str "digest" j, expect_of j))
    envs

(* [setups] set-ups, each timed from the daemon's start to its filled
   cache; every fill must give the first fill's digests. Returns the
   last set-up's daemon, connection and fill, and the median set-up
   time. *)
let timed_setups ~setups ~fill start =
  let rec go k acc =
    let (d, c, filled), wall =
      time (fun () ->
          let d, c = start () in
          (d, c, fill c))
    in
    let acc = (filled, wall) :: acc in
    if k < setups then begin
      stop d c;
      go (k + 1) acc
    end
    else
      let first = fst (List.nth acc (setups - 1)) in
      let failures =
        if List.for_all (fun (f, _) -> f = first) acc then []
        else [ "set-up: fills differ between set-ups" ]
      in
      (d, c, filled, median (List.map snd acc), failures)
  in
  go 1 []

(* --- the closed loop ------------------------------------------------------ *)

type sample = { rtt : float; traced : bool }

(* Requests [next 0], [next 1], ... one at a time for [seconds], each on
   the connection [client i] gives. Traced, every other request carries
   a trace context. *)
let closed_loop ~seconds ~traced ~client next =
  let samples = ref [] and failures = ref [] and spans = ref [] in
  let t0 = Clock.now_ns () in
  let i = ref 0 in
  while Clock.seconds_since t0 < seconds do
    let c = client !i in
    let r = next !i in
    let is_traced = traced && !i land 1 = 1 in
    let reply, rtt =
      time (fun () ->
          if not is_traced then rpc c r.env
          else
            match Client.traced_rpc c (Trace_ctx.generate ()) r.env with
            | Ok (reply, sp) ->
              spans := List.rev_append sp !spans;
              Client.ok reply
            | Error e -> Error e)
    in
    failures := List.rev_append (check r reply) !failures;
    samples := { rtt; traced = is_traced } :: !samples;
    incr i
  done;
  (List.rev !samples, List.rev !failures, List.rev !spans)

let ms xs q = percentile xs q *. 1000.0

(* Percentiles and rate over every request of the run. With one request
   in flight, the round trips add up to the time the client was
   waiting, so the rate leaves out only the client's own checks and a
   daemon restart. *)
let end_to_end_values ~setup_s ~rss samples =
  let rtts = List.map (fun s -> s.rtt) samples in
  [
    ("setup_s", setup_s);
    ("p50_ms", ms rtts 0.50);
    ("p99_ms", ms rtts 0.99);
    ("items_per_s", float_of_int (List.length rtts) /. sum rtts);
    ("peak_rss_mb", rss);
  ]

let cache_stats c =
  let j = rpc_exn c (op "stats") in
  let g k =
    match Option.bind (Json.member "cache" j) (Json.member k) with
    | Some (Json.Int n) -> float_of_int n
    | _ -> 0.0
  in
  (g "mem_hits", g "mem_misses", g "disk_hits")

(* Share of result-tier lookups each tier answered, over (before, after)
   [stats] pairs. *)
let tier_ratios probes =
  let delta f = sum (List.map (fun (b, a) -> f a -. f b) probes) in
  let mem_hits = delta (fun (h, _, _) -> h) in
  let lookups = mem_hits +. delta (fun (_, m, _) -> m) in
  [
    ("cache.mem_hit_ratio", ratio mem_hits lookups);
    ("cache.disk_hit_ratio", ratio (delta (fun (_, _, d) -> d)) lookups);
  ]

(* The access-log records of a daemon's measured requests, in request
   order: those between the two [stats] probes around them. *)
let measured_records d =
  match Option.map Top.read_access_file d.access_log with
  | None | Some (Error _) -> []
  | Some (Ok (records, _, _)) ->
    let rec after_stats = function
      | [] -> []
      | r :: rest -> if r.Top.ac_op = "stats" then rest else after_stats rest
    in
    let rec until_stats = function
      | [] -> []
      | r :: rest ->
        if r.Top.ac_op = "stats" then [] else r :: until_stats rest
    in
    until_stats (after_stats records)

(* Where the plain (untraced) requests' time went, by the daemons' own
   phase walls, and what tracing the other half cost. *)
let layer_values records samples =
  let paired = zip samples records in
  let plain = List.filter (fun (s, _) -> not s.traced) paired in
  let of_plain f = List.map f plain in
  let both name xs = [ (name ^ "_p50_ms", ms xs 0.50); (name ^ "_p99_ms", ms xs 0.99) ] in
  let open Top in
  let totals verdict =
    List.filter_map
      (fun (_, r) -> if r.ac_verdict = verdict then Some r.ac_total_s else None)
      plain
  in
  let rtts traced =
    List.filter_map (fun s -> if s.traced = traced then Some s.rtt else None) samples
  in
  both "serve.cache" (of_plain (fun (_, r) -> r.ac_cache_s))
  @ both "serve.compute" (of_plain (fun (_, r) -> r.ac_compute_s))
  @ both "serve.reply" (of_plain (fun (_, r) -> r.ac_reply_s))
  @ both "serve.encode"
      (of_plain (fun (_, r) ->
           r.ac_total_s -. r.ac_cache_s -. r.ac_compute_s -. r.ac_reply_s))
  @ both "client.transport" (of_plain (fun (s, r) -> s.rtt -. r.ac_total_s))
  @ [
      ("serve.hit_total_p50_ms", ms (totals "hit") 0.50);
      ( "serve.busy_share",
        ratio
          (sum (List.map (fun (_, r) -> r.ac_total_s) paired))
          (sum (List.map (fun (s, _) -> s.rtt) paired)) );
      ( "obs.trace_overhead_pct",
        let plain = median (rtts false) and traced = median (rtts true) in
        100.0 *. ratio (traced -. plain) plain );
    ]

(* The measured daemons of a run, each with its [stats] before the loop
   reached it, its [stats] when the loop left it, and its peak resident
   set. *)
type measured = {
  mutable daemons : (daemon * (float * float * float)) list;
  mutable probes : ((float * float * float) * (float * float * float)) list;
  mutable rss : float;
}

let enter m (d, c) = m.daemons <- (d, cache_stats c) :: m.daemons

let leave m (d, c) =
  (match List.assoc_opt d m.daemons with
  | Some before -> m.probes <- (before, cache_stats c) :: m.probes
  | None -> ());
  m.rss <- Float.max m.rss (peak_rss_mb (string_of_int d.pid));
  stop d c

(* One serve workload, measured once the set-up is done: [loop m] runs
   the closed loop, entering and leaving each daemon it uses through
   [m]; [extra] adds the workload's own per-layer values once every
   daemon is down. *)
let measure ~setup_s ~setup_failures ~traced ~trace_out ~extra loop =
  let m = { daemons = []; probes = []; rss = 0.0 } in
  let samples, failures, spans = loop m in
  let values =
    if not traced then end_to_end_values ~setup_s ~rss:m.rss samples
    else begin
      Option.iter
        (fun write -> write (Json.to_string (Trace_ctx.chrome_trace spans)))
        trace_out;
      let records =
        List.concat_map (fun (d, _) -> measured_records d) (List.rev m.daemons)
      in
      tier_ratios m.probes @ layer_values records samples @ extra ()
    end
  in
  { attempted = List.length samples; failures = setup_failures @ failures; values }

(* --- serve-hot ------------------------------------------------------------ *)

(* {synth, testability, atpg at 4 bit} x the six paper benchmarks x the
   four flows: replies from a 9-field summary to a full table row, and
   journals from a handful of events (tseng) to hundreds (ewf). *)
let hot_requests scale =
  let benches =
    match scale with
    | Full -> [ "ex"; "dct"; "diffeq"; "ewf"; "paulin"; "tseng" ]
    | Tiny -> [ "tseng" ]
  in
  List.concat_map
    (fun bench ->
      List.concat_map
        (fun approach ->
          let s = spec ~bench ~approach ~bits:4 () in
          Engine.[ Synth s; Testability s; Atpg s ])
        Hlts_eval.Experiments.approaches)
    benches

let step_us f = median (List.init 5 (fun _ -> snd (time f))) *. 1e6

(* Each hot key answered in-process by an engine over the daemon's cache
   directory, step by step: where a hit's time goes without the socket. *)
let replay_hits cache_dir envs =
  let engine =
    Engine.create ~jobs:1 ~cache:(Cache.create ~dir:(Some cache_dir) ()) ()
  in
  let steps =
    Array.to_list
      (Array.map
         (fun env ->
           let req =
             match Engine.request_of_json env with
             | Ok r -> r
             | Error e -> failwith e
           in
           ignore (Engine.run engine req);
           let r = Engine.run engine req in
           let reply =
             Json.Obj
               [
                 ("ok", Json.Bool true);
                 ("digest", Json.Str r.Engine.digest);
                 ("cached", Json.Bool r.Engine.cached);
                 ("response", Engine.response_to_json r.Engine.response);
               ]
           in
           [
             ("engine.request_of_json", step_us (fun () -> Engine.request_of_json env));
             ("engine.request_digest", step_us (fun () -> Engine.request_digest req));
             ("engine.run_hit", step_us (fun () -> Engine.run engine req));
             ( "engine.response_digest",
               step_us (fun () -> Engine.response_digest r.Engine.response) );
             ( "engine.journal_digest",
               step_us (fun () -> Engine.journal_digest r.Engine.journal) );
             ("json.encode", step_us (fun () -> Json.to_string reply));
           ])
         envs)
  in
  List.concat_map
    (fun (name, _) ->
      let xs = List.map (List.assoc name) steps in
      [
        (name ^ "_us", mean xs);
        (name ^ "_max_us", List.fold_left Float.max 0.0 xs);
      ])
    (List.hd steps)

let hot ~scale ~seed ~seconds ~traced ~trace_out () =
  let envs =
    Array.of_list (List.map Engine.request_to_json (hot_requests scale))
  in
  with_daemons @@ fun start ->
  let d, c, filled, setup_s, setup_failures =
    timed_setups ~setups:3 ~fill:(fill_all envs)
      (start ~access_log:traced)
  in
  (* Every key once per round, rounds in seeded orders: each window sees
     the same mix of cheap and journal-heavy keys. *)
  let next =
    let rng = Rng.create seed in
    let order = Array.init (Array.length envs) Fun.id in
    fun i ->
      if i mod Array.length order = 0 then Rng.shuffle rng order;
      let k = order.(i mod Array.length order) in
      { env = envs.(k); want = snd filled.(k);
        label = Printf.sprintf "request %d (key %d)" i k }
  in
  measure ~setup_s ~setup_failures ~traced ~trace_out
    ~extra:(fun () -> replay_hits d.cache_dir envs)
  @@ fun m ->
  enter m (d, c);
  let r = closed_loop ~seconds ~traced ~client:(fun _ -> c) next in
  leave m (d, c);
  r

(* --- serve-mixed ---------------------------------------------------------- *)

(* The six sweeps [bench --json-serve] sends (Tables 1-3 and the extra
   benchmarks, every flow), at ATPG seed 1 and every cell at 4 bit. The
   bench's widths (4, 8 and 16 bit for the tables, 8 for the rest) take
   25-38 s to fill, and 8.3 s without the 16-bit column, which no
   set-up repeated three times in a run can afford; at 4 bit the fill
   takes about 3 s. A hit's work follows the number of cells and their
   journals, not the width they were graded at. *)
let sweeps scale =
  let params = { Hlts_synth.Synth.default_params with Hlts_synth.Synth.bits = 8 } in
  let atpg = { Hlts_atpg.Atpg.default_config with Hlts_atpg.Atpg.seed = 1 } in
  let cells bench =
    List.map
      (fun approach -> spec ~params ~atpg ~bench ~approach ~bits:4 ())
      Hlts_eval.Experiments.approaches
  in
  List.map cells
    (match scale with
    | Full -> [ "ex"; "dct"; "diffeq"; "ewf"; "paulin"; "tseng" ]
    | Tiny -> [ "tseng" ])

(* After the restart, each sweep once (every cell from disk), then
   [recalls] more rounds of every sweep (every cell from memory): the
   warm pass and warm-hit recalls of [bench --json-serve], which recalls
   the first sweep 100 times after its 6-sweep warm pass. *)
let recalls = 16

let mixed ~scale ~seed ~seconds ~traced ~trace_out () =
  let sweeps = sweeps scale in
  let envs = Array.of_list (List.map (fun s -> Engine.request_to_json (Engine.Sweep s)) sweeps) in
  let n = Array.length envs in
  with_daemons @@ fun start ->
  (* Set-up: a daemon over a fresh cache computes every cell and writes
     it to disk (the cold pass), and shuts down. *)
  let d, c, filled, setup_s, setup_failures =
    timed_setups ~setups:3 ~fill:(fill_all envs) (start ~access_log:false)
  in
  stop d c;
  let cache_dir = d.cache_dir in
  let cycle = n * (1 + recalls) in
  let next =
    let rng = Rng.create seed in
    let order = Array.init n Fun.id in
    fun i ->
      if i mod n = 0 then Rng.shuffle rng order;
      let k = order.(i mod n) in
      let tier = if i mod cycle < n then "disk" else "memory" in
      { env = envs.(k); want = snd filled.(k);
        label = Printf.sprintf "request %d (sweep %d, %s)" i k tier }
  in
  (* [Cache.find] through a fresh cache over the daemons' directory: the
     disk tier's read, check and unmarshal, per cell. *)
  let disk_find () =
    let cache = Cache.create ~dir:(Some cache_dir) () in
    let find s =
      snd
        (time (fun () ->
             (Cache.find cache ~kind:"result" (Engine.spec_digest ~op:"atpg" s)
               : (Hlts_eval.Eval.row * Obs.Journal.event list) option)))
      *. 1e6
    in
    [ ("cache.disk_find_us", median (List.map find (List.concat sweeps))) ]
  in
  measure ~setup_s ~setup_failures ~traced ~trace_out ~extra:disk_find
  @@ fun m ->
  (* A daemon restarted over the filled cache at the start of every
     cycle: its memory tier starts empty. *)
  let live = ref None in
  let client i =
    match !live with
    | Some dc when i mod cycle <> 0 -> snd dc
    | _ ->
      Option.iter (leave m) !live;
      let dc = start ~cache_dir ~access_log:traced () in
      enter m dc;
      live := Some dc;
      snd dc
  in
  let r = closed_loop ~seconds ~traced ~client next in
  Option.iter (leave m) !live;
  r
