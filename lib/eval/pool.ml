(* Persistent worker pool over OCaml 5 domains.

   Lanes vs domains: the pool exposes [jobs] deterministic *lanes* —
   tickets are assigned round-robin ([id mod jobs]), worker_index
   reports the lane, per-lane worker state arrays stay lane-indexed —
   but multiplexes them onto [min jobs cores] actual domains (lane
   [l] is served by domain [l mod ndoms]). Running more busy domains
   than cores is not just useless on OCaml 5, it is actively hostile:
   every minor collection is a stop-the-world synchronisation across
   all running domains, and when those domains are time-sliced onto
   too few cores each barrier waits for the scheduler to run every
   preempted domain to its safepoint. Measured on a 1-core host, 4
   busy domains turned a 23 s synthesis into 46 s; the same task
   stream through 1 domain serving 4 lanes runs far closer to serial
   speed. Determinism is untouched by the multiplexing because each
   lane keeps its own FIFO order (a domain drains its queue in push
   order and pushes per lane are ordered), its own poison state and
   its own served count — the reply stream per ticket is
   byte-identical whatever the domain count. [HLTS_DOMAINS] overrides
   the physical budget (the default is
   [Domain.recommended_domain_count ()]; empty means unset).

   When the budget is a single core the pool spawns no domain at all
   and executes lanes *inline* on the caller's domain: submit queues,
   await drains the queue in submission order until the awaited reply
   exists, and each task runs under [Obs.in_fresh_context] so its
   capture (and everything else about the reply stream) is identical
   to what a spawned domain would have produced. The motivation is
   measured, not aesthetic: merely having a second domain — even one
   blocked in [Condition.wait] — makes every minor collection a
   cross-domain handshake, which on a 1-core host costs a scheduler
   round-trip; an allocation-heavy workload slowed down 1.9x with one
   idle domain present. Inline execution keeps the runtime in
   single-domain mode, so parallelism the hardware cannot grant costs
   nothing.

   Tasks and results are passed as ordinary heap values through
   Mutex+Condition queues — no Marshal anywhere on this path — so the
   compiled structures a task closure captures (transitive-closure
   bitsets, Sim CSRs, PPSFP plans) are shared, not copied. Replies are
   published under [rmu] and consumed under [rmu], which gives the
   parent a happens-before edge on everything the worker wrote.

   Observability sinks are domain-local, so each worker domain
   installs its own capture sink without disturbing the parent's
   sinks; completed worker spans are re-stamped parent-side as
   [Worker_span] events on the ticket's lane when the reply is claimed.

   Resource honesty: a domain's GC counters are domain-local, but CPU
   time and RSS are process-wide readings (the OS does not split them
   per domain), so the fleet gauges take the max over lanes, not the
   sum. *)

module Obs = Hlts_obs

let default_jobs () =
  match Sys.getenv_opt "HLTS_JOBS" with
  | None -> 1
  | Some s -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 1 -> n
    | Some _ | None -> 1)

(* --- tally capture ------------------------------------------------------ *)

(* A worker — spawned domain or inline lane — captures its own counter
   increments, histogram samples, gauge settings and decision-journal
   events per task into a [capture] buffer through an observability
   sink, and ships the harvested [tally] back with each reply for the
   parent to replay. *)

type tally = {
  counts : (string * int) list;
  samples : (string * float) list;
  gauges : (string * float) list;
  decisions : Obs.Journal.event list;
}

type wres = {
  wr_tasks : int;
  wr_utime_s : float;
  wr_stime_s : float;
  wr_rss_kb : int;
  wr_max_rss_kb : int;
  wr_minor_words : float;
  wr_major_words : float;
  wr_major_collections : int;
}

let empty_tally = { counts = []; samples = []; gauges = []; decisions = [] }

(* Counter deltas summed by name, names in first-emission order. *)
let aggregate_counts entries =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun (name, by) ->
      match Hashtbl.find_opt tbl name with
      | None ->
        order := name :: !order;
        Hashtbl.add tbl name by
      | Some n -> Hashtbl.replace tbl name (n + by))
    entries;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

(* Last value per gauge name, names in first-emission order. *)
let aggregate_gauges entries =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun (name, v) ->
      if not (Hashtbl.mem tbl name) then order := name :: !order;
      Hashtbl.replace tbl name v)
    entries;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

type capture = {
  mutable c_counts : (string * int) list;
  mutable c_samples : (string * float) list;
  mutable c_gauges : (string * float) list;
  mutable c_decisions : Obs.Journal.event list;
  mutable c_spans : Obs.span_rec list;
  mutable rs_tick : int;  (** calls to {!resources} so far *)
  mutable rs_rss_kb : int;  (** cached VmRSS from the last procfs scan *)
  mutable rs_max_rss_kb : int;  (** cached VmHWM from the last procfs scan *)
}

let make_capture () =
  {
    c_counts = [];
    c_samples = [];
    c_gauges = [];
    c_decisions = [];
    c_spans = [];
    rs_tick = 0;
    rs_rss_kb = 0;
    rs_max_rss_kb = 0;
  }

(* The sink a worker installs into its own (domain-local) sink list.
   "res." gauges are host-dependent readings; the worker's own
   resources travel via [wres] instead, so the replayed tally stays
   deterministic. *)
let capture_sink c =
  {
    Obs.emit =
      (function
        | Obs.Count { name; delta; _ } -> c.c_counts <- (name, delta) :: c.c_counts
        | Obs.Sample { name; v; _ } -> c.c_samples <- (name, v) :: c.c_samples
        | Obs.Gauge { name; v; _ } ->
          if not (Obs.Res.is_gauge name) then
            c.c_gauges <- (name, v) :: c.c_gauges
        | Obs.Decision { d; _ } -> c.c_decisions <- d :: c.c_decisions
        | Obs.Span_end { name; cat; ts_ns; dur_ns; depth; args } ->
          c.c_spans <-
            {
              Obs.w_name = name;
              w_cat = cat;
              w_ts_ns = ts_ns;
              w_dur_ns = dur_ns;
              w_depth = depth;
              w_args = args;
            }
            :: c.c_spans
        | _ -> ());
    flush = ignore;
  }

let reset c =
  c.c_counts <- [];
  c.c_samples <- [];
  c.c_gauges <- [];
  c.c_decisions <- [];
  c.c_spans <- []

let harvest c =
  let tally =
    {
      counts = aggregate_counts (List.rev c.c_counts);
      samples = List.rev c.c_samples;
      gauges = aggregate_gauges (List.rev c.c_gauges);
      decisions = List.rev c.c_decisions;
    }
  in
  (tally, List.rev c.c_spans)

(* Called once per instrumented reply, so it must stay cheap at tens of
   thousands of tasks per second. GC counters and CPU times are single
   syscalls / runtime reads and taken fresh every call; the RSS reading
   is a procfs scan (tens of microseconds) and host-dependent anyway,
   so it is refreshed only on the first call and every 64th after that,
   with the cached values reused in between. [wr_tasks] is always
   exact — it carries the lane's served count, never a sampled one. *)
let rss_refresh_period = 64

let resources cap ~served =
  cap.rs_tick <- cap.rs_tick + 1;
  if cap.rs_tick mod rss_refresh_period = 1 || rss_refresh_period = 1 then begin
    let s = Obs.Res.snapshot () in
    cap.rs_rss_kb <- s.rss_kb;
    cap.rs_max_rss_kb <- s.max_rss_kb;
    {
      wr_tasks = served;
      wr_utime_s = s.utime_s;
      wr_stime_s = s.stime_s;
      wr_rss_kb = s.rss_kb;
      wr_max_rss_kb = s.max_rss_kb;
      wr_minor_words = s.minor_words;
      wr_major_words = s.major_words;
      wr_major_collections = s.major_collections;
    }
  end
  else begin
    let tm = Unix.times () in
    let g = Gc.quick_stat () in
    {
      wr_tasks = served;
      wr_utime_s = tm.Unix.tms_utime;
      wr_stime_s = tm.Unix.tms_stime;
      wr_rss_kb = cap.rs_rss_kb;
      wr_max_rss_kb = cap.rs_max_rss_kb;
      wr_minor_words = g.Gc.minor_words;
      wr_major_words = g.Gc.major_words;
      wr_major_collections = g.Gc.major_collections;
    }
  end

(* --- worker identity ---------------------------------------------------- *)

let self : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

(* The serving domain's index — the sharing group. Lanes with the same
   group run sequentially on one domain, so callers may safely share
   unsynchronized mutable scratch (memo caches, rebased states) per
   group where per-lane copies would be redundant. *)
let group : int option Domain.DLS.key = Domain.DLS.new_key (fun () -> None)

let in_worker () = Domain.DLS.get self <> None
let worker_index () = Option.value ~default:0 (Domain.DLS.get self)
let worker_group () = Option.value ~default:0 (Domain.DLS.get group)

let domain_budget () =
  match Sys.getenv_opt "HLTS_DOMAINS" with
  | Some s when String.trim s <> "" -> (
    match int_of_string_opt (String.trim s) with
    | Some n when n > 0 -> n
    | _ -> invalid_arg "HLTS_DOMAINS must be a positive integer")
  | Some _ | None -> max 1 (Domain.recommended_domain_count ())

(* --- the pool ----------------------------------------------------------- *)

type ticket = int

type 'task down =
  | Job of int * 'task  (** ticket; its lane is [id mod jobs] *)
  | Ctl of int * 'task  (** lane *)
  | Quit

type 'res reply = {
  rp_result : ('res, string) result;
  rp_tally : tally;
  rp_spans : Obs.span_rec list;
  rp_wres : wres option;
}

(* Parent-side bookkeeping for one deterministic lane. *)
type lane = {
  l_index : int;
  mutable l_inflight : int;
  mutable l_res : wres option;  (** latest snapshot from replies *)
}

(* One actual domain, serving every lane with [l mod ndoms = d_index]. *)
type 'task dworker = {
  d_index : int;
  mu : Mutex.t;
  cond : Condition.t;  (** signalled when [q] gains a message *)
  q : 'task down Queue.t;
  mutable alive : bool;  (** written by the worker under the pool's [rmu] *)
  mutable fail : string option;
  mutable dom : unit Domain.t option;
}

(* Inline execution (budget = 1 core): no domain at all. Submitted
   messages queue here and [await] drains the queue — in submission
   order, so per-lane FIFO holds trivially — on the caller's own
   domain, each task inside [Obs.in_fresh_context] with the same
   capture sink a spawned domain would have installed. *)
type ('task, 'res) istate = {
  iq : 'task down Queue.t;
  ipoisoned : string option array;  (** per lane, like a worker's *)
  iserved : int array;
  icap : capture;
  isinks : Obs.sink list;  (** the fresh-worker sink environment *)
  ifn : 'task -> 'res;
}

type ('task, 'res) t = {
  name : string;
  instrumented : bool;  (** parent had a sink at create time *)
  lanes : lane array;
  doms : 'task dworker array;  (** empty in inline mode *)
  inline : ('task, 'res) istate option;
  rmu : Mutex.t;
  rcond : Condition.t;  (** signalled on every reply and domain death *)
  replies : (int, 'res reply) Hashtbl.t;  (** guarded by [rmu] *)
  mutable next : int;
  mutable open_ : bool;
}

let jobs t = Array.length t.lanes

let parallelism t =
  match t.inline with Some _ -> 1 | None -> Array.length t.doms

let dom_of t lane = t.doms.(lane mod Array.length t.doms)

(* --- worker side -------------------------------------------------------- *)

let post_reply t id reply =
  Mutex.lock t.rmu;
  Hashtbl.replace t.replies id reply;
  Condition.broadcast t.rcond;
  Mutex.unlock t.rmu

let mark_dead t d reason =
  Mutex.lock t.rmu;
  if d.alive then begin
    d.alive <- false;
    d.fail <- reason
  end;
  Condition.broadcast t.rcond;
  Mutex.unlock t.rmu

(* The reply for one job on [lane]: the task's result (or the lane's
   poison), the harvested capture and, when instrumented, the lane's
   resource snapshot. Shared by spawned domains and inline execution,
   so both produce the same reply stream. *)
let run_job t ~cap ~poisoned ~served ~lane f x =
  let r =
    match poisoned.(lane) with
    | Some msg -> Error ("control task failed: " ^ msg)
    | None -> ( try Ok (f x) with e -> Error (Printexc.to_string e))
  in
  served.(lane) <- served.(lane) + 1;
  let tally, spans = if t.instrumented then harvest cap else (empty_tally, []) in
  let wres =
    if t.instrumented then Some (resources cap ~served:served.(lane)) else None
  in
  { rp_result = r; rp_tally = tally; rp_spans = spans; rp_wres = wres }

let run_ctl ~poisoned ~lane f x =
  match poisoned.(lane) with
  | Some _ -> ()
  | None -> (
    try ignore (f x) with e -> poisoned.(lane) <- Some (Printexc.to_string e))

let worker_main t d f =
  (* A fresh domain starts with an empty (domain-local) sink list: when
     the pool is uninstrumented, Obs.enabled () is false in here and
     task code skips its capture paths. One capture serves every lane
     on this domain — it is reset per task, so attribution stays
     per-ticket — while poison state and served counts are per lane. *)
  let njobs = Array.length t.lanes in
  Domain.DLS.set group (Some d.d_index);
  let cap = make_capture () in
  if t.instrumented then Obs.add_sink (capture_sink cap);
  let poisoned = Array.make njobs None in
  let served = Array.make njobs 0 in
  let rec loop () =
    Mutex.lock d.mu;
    while Queue.is_empty d.q do
      Condition.wait d.cond d.mu
    done;
    let msg = Queue.pop d.q in
    Mutex.unlock d.mu;
    match msg with
    | Quit -> ()
    | Ctl (lane, x) ->
      Domain.DLS.set self (Some lane);
      reset cap;
      run_ctl ~poisoned ~lane f x;
      loop ()
    | Job (id, x) ->
      let lane = id mod njobs in
      Domain.DLS.set self (Some lane);
      reset cap;
      post_reply t id (run_job t ~cap ~poisoned ~served ~lane f x);
      loop ()
  in
  (try loop ()
   with e ->
     mark_dead t d
       (Some
          (Printf.sprintf "domain %d raised %s" d.d_index
             (Printexc.to_string e))));
  mark_dead t d None

(* --- parent side -------------------------------------------------------- *)

let total_inflight t =
  Array.fold_left (fun acc l -> acc + l.l_inflight) 0 t.lanes

let gauge_depth t =
  if Obs.enabled () then
    Obs.gauge (t.name ^ ".queue_depth") (float_of_int (total_inflight t))

let gauge_resources t =
  if Obs.enabled () then begin
    let rss = ref 0 and cpu = ref 0.0 and tasks = ref 0 and any = ref false in
    Array.iter
      (fun l ->
        match l.l_res with
        | None -> ()
        | Some r ->
          any := true;
          (* process-wide readings: max, not sum (see header) *)
          rss := max !rss r.wr_rss_kb;
          cpu := Float.max !cpu (r.wr_utime_s +. r.wr_stime_s);
          tasks := !tasks + r.wr_tasks)
      t.lanes;
    if !any then begin
      Obs.gauge (t.name ^ ".workers_rss_kb") (float_of_int !rss);
      Obs.gauge (t.name ^ ".workers_cpu_s") !cpu;
      Obs.gauge (t.name ^ ".workers_tasks") (float_of_int !tasks)
    end
  end

let worker_resources t =
  Array.to_list t.lanes
  |> List.filter_map (fun l -> Option.map (fun r -> (l.l_index, r)) l.l_res)

(* --- inline execution (budget = 1, no domains) -------------------------- *)

(* Execute one queued message on the caller's domain, reproducing the
   worker environment exactly: lane-DLS set, group 0, fresh sink
   context (capture sink or nothing), capture reset before and
   harvested after, per-lane poison and served counts. The reply
   stream is byte-identical to a spawned domain's. *)
let inline_step t st msg =
  let run_as lane body =
    Domain.DLS.set self (Some lane);
    Domain.DLS.set group (Some 0);
    reset st.icap;
    Fun.protect
      ~finally:(fun () ->
        Domain.DLS.set self None;
        Domain.DLS.set group None)
      (fun () -> Obs.in_fresh_context st.isinks body)
  in
  match msg with
  | Quit -> ()
  | Ctl (lane, x) ->
    run_as lane (fun () -> run_ctl ~poisoned:st.ipoisoned ~lane st.ifn x)
  | Job (id, x) ->
    let lane = id mod Array.length t.lanes in
    post_reply t id
      (run_as lane (fun () ->
           run_job t ~cap:st.icap ~poisoned:st.ipoisoned ~served:st.iserved
             ~lane st.ifn x))

let create ?(name = "pool") ~jobs f =
  if in_worker () then invalid_arg "Pool.create: nested pool in a worker";
  let jobs = max 1 jobs in
  (* Per-task wall time, measured worker-side inside the task's capture
     context so it rides the tally home and replays per ticket — as a
     span (so a traced request shows one block per task on its worker
     lane, even when the task body has no instrumentation of its own)
     and as a sample (so the parent's --metrics exposes a
     hlts_<name>_task_seconds_bucket latency histogram). Passive when
     the task runs uninstrumented, like every other probe. *)
  let sample_name = name ^ ".task_seconds" in
  let span_name = name ^ ".task" in
  let f task =
    if Obs.enabled () then
      Obs.span ~cat:"pool" span_name (fun _ ->
          let t0 = Obs.Clock.now_ns () in
          let r = f task in
          Obs.sample sample_name (Obs.Clock.seconds_since t0);
          r)
    else f task
  in
  Obs.span ~cat:"pool" (name ^ ".create") @@ fun sp ->
  Obs.set sp "jobs" (Obs.Int jobs);
  let ndoms = min jobs (domain_budget ()) in
  let inline_mode = ndoms <= 1 in
  Obs.set sp "domains" (Obs.Int (if inline_mode then 0 else ndoms));
  let instrumented = Obs.enabled () in
  let inline =
    if not inline_mode then None
    else begin
      let icap = make_capture () in
      Some
        {
          iq = Queue.create ();
          ipoisoned = Array.make jobs None;
          iserved = Array.make jobs 0;
          icap;
          isinks = (if instrumented then [ capture_sink icap ] else []);
          ifn = f;
        }
    end
  in
  let t =
    {
      name;
      instrumented;
      lanes =
        Array.init jobs (fun l_index ->
            { l_index; l_inflight = 0; l_res = None });
      doms =
        (if inline_mode then [||]
         else
           Array.init ndoms (fun d_index ->
               {
                 d_index;
                 mu = Mutex.create ();
                 cond = Condition.create ();
                 q = Queue.create ();
                 alive = true;
                 fail = None;
                 dom = None;
               }));
      inline;
      rmu = Mutex.create ();
      rcond = Condition.create ();
      replies = Hashtbl.create 64;
      next = 0;
      open_ = true;
    }
  in
  Array.iter
    (fun d -> d.dom <- Some (Domain.spawn (fun () -> worker_main t d f)))
    t.doms;
  t

let check_open t =
  if not t.open_ then invalid_arg (t.name ^ ": pool is shut down")

let send d msg =
  Mutex.lock d.mu;
  Queue.push msg d.q;
  Condition.signal d.cond;
  Mutex.unlock d.mu

let broadcast t task =
  check_open t;
  match t.inline with
  | Some st ->
    Array.iter (fun l -> Queue.push (Ctl (l.l_index, task)) st.iq) t.lanes
  | None ->
    Array.iter
      (fun l -> send (dom_of t l.l_index) (Ctl (l.l_index, task)))
      t.lanes

let submit t task =
  check_open t;
  let id = t.next in
  t.next <- id + 1;
  let l = t.lanes.(id mod Array.length t.lanes) in
  l.l_inflight <- l.l_inflight + 1;
  (match t.inline with
  | Some st -> Queue.push (Job (id, task)) st.iq
  | None -> send (dom_of t l.l_index) (Job (id, task)));
  Obs.count (t.name ^ ".tasks");
  gauge_depth t;
  id

(* Reply postlude shared by the spawned and inline paths. *)
let claim_reply t l id { rp_result; rp_tally; rp_spans; rp_wres } =
  l.l_inflight <- l.l_inflight - 1;
  (match rp_wres with Some _ -> l.l_res <- rp_wres | None -> ());
  if Obs.enabled () then
    List.iter (Obs.worker_span ~worker:l.l_index ~ticket:id) rp_spans;
  gauge_depth t;
  gauge_resources t;
  match rp_result with
  | Ok v -> (v, rp_tally)
  | Error msg ->
    failwith (Printf.sprintf "%s: task %d failed: %s" t.name id msg)

let await t id =
  check_open t;
  if id < 0 || id >= t.next then
    invalid_arg (Printf.sprintf "%s: unknown ticket %d" t.name id);
  let l = t.lanes.(id mod Array.length t.lanes) in
  match t.inline with
  | Some st ->
    (* Single-domain: drain queued messages in submission order until
       the awaited reply has been produced. Every valid ticket's Job is
       in the queue or already replied, so the drain terminates. *)
    let rec drain () =
      match Hashtbl.find_opt t.replies id with
      | Some reply ->
        Hashtbl.remove t.replies id;
        reply
      | None -> (
        match Queue.take_opt st.iq with
        | Some msg ->
          inline_step t st msg;
          drain ()
        | None ->
          failwith
            (Printf.sprintf "%s: no pending work for task %d" t.name id))
    in
    claim_reply t l id (drain ())
  | None -> (
    let d = dom_of t l.l_index in
    Mutex.lock t.rmu;
    let rec wait () =
      match Hashtbl.find_opt t.replies id with
      | Some reply ->
        Hashtbl.remove t.replies id;
        Mutex.unlock t.rmu;
        Some reply
      | None ->
        if not d.alive then begin
          Mutex.unlock t.rmu;
          None
        end
        else begin
          Condition.wait t.rcond t.rmu;
          wait ()
        end
    in
    match wait () with
    | None ->
      failwith
        (Printf.sprintf "%s: %s before replying to task %d" t.name
           (Option.value ~default:"worker died" d.fail)
           id)
    | Some reply -> claim_reply t l id reply)

let shutdown t =
  if t.open_ then begin
    t.open_ <- false;
    Obs.span ~cat:"pool" (t.name ^ ".shutdown") @@ fun _ ->
    (match t.inline with Some st -> Queue.clear st.iq | None -> ());
    Array.iter (fun d -> send d Quit) t.doms;
    Array.iter
      (fun d ->
        match d.dom with
        | None -> ()
        | Some dm ->
          (* worker_main catches everything, so join is clean *)
          Domain.join dm;
          d.dom <- None)
      t.doms
  end

(* --- tally replay ------------------------------------------------------- *)

let replay { counts; samples; gauges; decisions } =
  List.iter (fun (name, by) -> Obs.count ~by name) counts;
  List.iter (fun (name, v) -> Obs.sample name v) samples;
  List.iter (fun (name, v) -> Obs.gauge name v) gauges;
  List.iter Obs.journal decisions

(* Deterministic cross-worker gauge merge: max over every tally, names
   in first-seen order. [-j N] changes which worker records which
   gauge, never the multiset of per-task (name, value) pairs — the
   tallies hand the exact same pairs to this fold in ticket order at
   every job count — so max (an order-independent, duplicate-tolerant
   reduction) makes the merged list byte-identical at every [-j N].
   Ties need no breaking: equal values are indistinguishable. *)
let merge_gauges tallies =
  let tbl = Hashtbl.create 8 and order = ref [] in
  List.iter
    (fun tally ->
      List.iter
        (fun (name, v) ->
          match Hashtbl.find_opt tbl name with
          | None ->
            order := name :: !order;
            Hashtbl.add tbl name v
          | Some prev -> if v > prev then Hashtbl.replace tbl name v)
        tally.gauges)
    tallies;
  List.rev_map (fun name -> (name, Hashtbl.find tbl name)) !order

let map t xs =
  let ids = List.map (submit t) xs in
  let tallies = ref [] in
  let results =
    List.map
      (fun id ->
        let v, tally = await t id in
        tallies := tally :: !tallies;
        (* per-ticket replay keeps counters/samples/decisions in ticket
           order; gauges are merged once over the whole batch below so
           their final values don't depend on ticket interleaving *)
        replay { tally with gauges = [] };
        v)
      ids
  in
  List.iter
    (fun (name, v) -> Obs.gauge name v)
    (merge_gauges (List.rev !tallies));
  results

let with_pool ?name ~jobs f k =
  let t = create ?name ~jobs f in
  Fun.protect ~finally:(fun () -> shutdown t) (fun () -> k t)
