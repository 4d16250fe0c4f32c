module Testability = Hlts_testability.Testability
module Obs = Hlts_obs
module Pool = Hlts_pool.Pool

type stop =
  | Cost_improving
  | Exhaustive

type params = {
  k : int;
  alpha : float;
  beta : float;
  bits : int;
  strategy : Candidates.strategy;
  stop : stop;
  latency_factor : float;
  max_iterations : int;
}

let default_params =
  {
    k = 3;
    alpha = 2.0;
    beta = 1.0;
    bits = 8;
    strategy = Candidates.Balance;
    stop = Cost_improving;
    latency_factor = 1.5;
    max_iterations = 1000;
  }

type record = {
  iteration : int;
  description : string;
  delta_e : int;
  delta_h : float;
  cost : float;
  seq_depth : float;
}

type result = {
  final : State.t;
  records : record list;
  iterations : int;
}

let attempt state ~bits pair =
  Obs.count "synth.merge_attempts";
  match pair with
  | Candidates.Units (a, b) -> Merge.modules state ~bits a b
  | Candidates.Registers (a, b) -> Merge.registers state ~bits a b

(* Score-ordered candidate pairs for one iteration, reported on the
   iteration span. *)
let score_candidates params ~sp state =
  let analysis = State.analysis state in
  let scored =
    Obs.span ~cat:"candidates" "candidates.score" (fun csp ->
        let scored = Candidates.all_scored state analysis params.strategy in
        Obs.set csp "pool" (Obs.Int (List.length scored));
        scored)
  in
  Obs.set sp "pool" (Obs.Int (List.length scored));
  List.map fst scored

(* dE is in control steps; dH in mm2. To make alpha/beta trade them
   off the way the paper's parameter triples do, dH is expressed in
   register-equivalents at the target bit width (one register of the
   module library = 1 hardware unit). Both the sequential and the
   pooled step use these exact closures, so the commit rule — and with
   it the trajectory — cannot drift between the two paths. *)
let metrics params ~budget =
  let reg_unit = Hlts_floorplan.Module_library.reg_area ~bits:params.bits in
  let cost o =
    (params.alpha *. float_of_int o.Merge.delta_e)
    +. (params.beta *. o.Merge.delta_h /. reg_unit)
  in
  let acceptable o =
    Hlts_sched.Schedule.length o.Merge.state.State.schedule <= budget
    &&
    match params.stop with
    | Exhaustive -> true
    | Cost_improving -> cost o < 0.0
  in
  (cost, acceptable)

(* The same commit rule on slim [(dE, dH, sched_len)] triples. The
   journal verdicts below are derived from them in both the serial and
   the pooled step, so the two paths cannot disagree on a verdict. *)
let metrics_d params ~budget =
  let reg_unit = Hlts_floorplan.Module_library.reg_area ~bits:params.bits in
  let cost_d (delta_e, delta_h, _) =
    (params.alpha *. float_of_int delta_e)
    +. (params.beta *. delta_h /. reg_unit)
  in
  let acceptable_d ((_, _, sched_len) as d) =
    sched_len <= budget
    &&
    match params.stop with
    | Exhaustive -> true
    | Cost_improving -> cost_d d < 0.0
  in
  (cost_d, acceptable_d)

(* --- decision journal ---------------------------------------------------- *)

let journal_pair = function
  | Candidates.Units (a, b) -> Obs.Journal.Units (a, b)
  | Candidates.Registers (a, b) -> Obs.Journal.Registers (a, b)

let slim_of_outcome o =
  ( o.Merge.delta_e,
    o.Merge.delta_h,
    Hlts_sched.Schedule.length o.Merge.state.State.schedule )

(* Per-candidate verdicts for one evaluated batch, in candidate order:
   Candidate_scored for every feasible attempt, then a rejection reason
   for every non-winner (the winner's Merge_committed follows
   separately). Emitted *after* the batch's attempt/replay stream in
   both the serial and the pooled step — attempts interleave their own
   Reschedule events, and those streams only match across paths if the
   verdicts come post-hoc in both. *)
let journal_verdicts params ~budget slims ~winner =
  if Obs.enabled () then begin
    let _, acceptable_d = metrics_d params ~budget in
    List.iteri
      (fun i (pair, slim) ->
        let pair = journal_pair pair in
        match slim with
        | None ->
          Obs.journal
            (Obs.Journal.Candidate_rejected
               { pair; reason = Obs.Journal.Infeasible })
        | Some ((delta_e, delta_h, sched_len) as d) ->
          Obs.journal
            (Obs.Journal.Candidate_scored { pair; delta_e; delta_h; sched_len });
          if winner <> Some i then begin
            let reason =
              if sched_len > budget then Obs.Journal.Over_budget
              else if not (acceptable_d d) then Obs.Journal.Not_improving
              else Obs.Journal.Not_selected
            in
            Obs.journal (Obs.Journal.Candidate_rejected { pair; reason })
          end)
      slims
  end

let journal_committed outcome ~reason ~cost =
  if Obs.enabled () then
    Obs.journal
      (Obs.Journal.Merge_committed
         {
           description = outcome.Merge.description;
           reason;
           delta_e = outcome.Merge.delta_e;
           delta_h = outcome.Merge.delta_h;
           cost;
         })

let journal_iter_begin ~iteration ~pool =
  if Obs.enabled () then
    Obs.journal (Obs.Journal.Iter_begin { iteration; pool })

let top_reason params rank =
  Printf.sprintf "cheapest acceptable of top-%d (rank %d)" params.k rank

let widened_reason rank = Printf.sprintf "widened scan rank %d" rank

(* One iteration: select the k best-balanced candidate pairs, estimate
   dE/dH for each feasible merger, commit the cheapest acceptable one.
   If none of the top-k qualifies, the scan widens down the score-ordered
   list (keeping the testability priority) until an acceptable merger is
   found; [None] when none exists anywhere, which terminates the loop.
   [sp] is the enclosing iteration span; candidate-pool behaviour is
   reported on it. *)
let step params ~budget ~sp ~iteration state =
  let candidates = score_candidates params ~sp state in
  journal_iter_begin ~iteration ~pool:(List.length candidates);
  let cost, acceptable = metrics params ~budget in
  let top, rest = Hlts_util.Listx.split_at params.k candidates in
  (* Evaluate the top-k in score order, keeping each pair with its
     outcome so the post-hoc verdicts know who was scored and why the
     losers lost. [min_by] is first-wins, so the winner is the lowest
     rank among equal costs — same rule as before the journal. *)
  let outcomes =
    List.map (fun pair -> (pair, attempt state ~bits:params.bits pair)) top
  in
  let best_of_top =
    List.mapi (fun i (_, o) -> (i, o)) outcomes
    |> List.filter_map (fun (i, o) ->
           match o with
           | Some o when acceptable o -> Some (i, o)
           | Some _ | None -> None)
    |> Hlts_util.Listx.min_by (fun (_, o) -> cost o)
  in
  let slims =
    List.map (fun (pair, o) -> (pair, Option.map slim_of_outcome o)) outcomes
  in
  match best_of_top with
  | Some (wi, best) ->
    journal_verdicts params ~budget slims ~winner:(Some wi);
    let c = cost best in
    journal_committed best ~reason:(top_reason params (wi + 1)) ~cost:c;
    Some (best, c)
  | None ->
    journal_verdicts params ~budget slims ~winner:None;
    let widened = ref 0 in
    let scanned = ref [] in
    let rec widen = function
      | [] -> None
      | pair :: rest -> begin
        incr widened;
        let o = attempt state ~bits:params.bits pair in
        scanned := (pair, Option.map slim_of_outcome o) :: !scanned;
        match o with
        | Some o when acceptable o -> Some (o, cost o)
        | Some _ | None -> widen rest
      end
    in
    let found = widen rest in
    Obs.set sp "widened" (Obs.Int !widened);
    if !widened > 0 then Obs.count ~by:!widened "synth.scans_widened";
    let slims_w = List.rev !scanned in
    (match found with
    | Some (o, c) ->
      journal_verdicts params ~budget slims_w ~winner:(Some (!widened - 1));
      journal_committed o ~reason:(widened_reason !widened) ~cost:c;
      Some (o, c)
    | None ->
      journal_verdicts params ~budget slims_w ~winner:None;
      None)

(* --- pooled candidate evaluation ---------------------------------------- *)

(* Worker protocol: [W_state] (a broadcast) re-bases the worker on the
   committed design after each iteration; [W_try] attempts a slice of
   candidate mergers, in order, against that base. The re-base ships
   the committed design's parts rather than the state itself: a state
   carries unsynchronized lazy caches, so each sharing group rebuilds
   its own. Slicing several candidates into one task amortizes the
   per-task queueing; each attempt still returns its own counter tally
   so the parent can replay exactly the attempts a sequential scan
   would have made. *)
type wtask =
  | W_state of
      Hlts_sched.Constraints.t
      * Hlts_sched.Schedule.t
      * Hlts_alloc.Binding.t
      * float (* the committed state's floorplanned area at [params.bits] *)
  | W_try of Candidates.pair list

(* Per attempt: the outcome ([None] = infeasible), handed back by
   reference, and the counters the attempt emitted in the worker. *)
type wreply = (Merge.outcome option * Pool.tally) list

(* The pooled mirror of [step]. The top-k attempts run concurrently;
   the widening scan evaluates [parallelism * k] candidates
   speculatively per chunk and commits the first acceptable one in
   score order. Chunks scale with {!Pool.parallelism}, not [jobs]:
   speculation is only free when spare hardware absorbs it, and when
   the pool executes its lanes sequentially (inline mode on one core)
   a chunk of one makes the scan evaluate exactly what the serial scan
   would — measured on a 1-core host, jobs-sized chunks wasted ~0.5 GB
   of allocation per run on feasible mergers the scan never read. Cost
   and acceptability are computed with the same closures as [step], so
   the winner is the one the sequential scan would pick, and the
   winning outcome is the worker's own object (its evaluation is
   deterministic, so it {e is} the object the parent would construct).
   Worker tallies are replayed into the parent's sinks only for the
   attempts the sequential scan would have made (the whole top-k, and
   the widened prefix up to the winner); later speculation is discarded
   and accounted as [synth.pool.speculative_waste]. *)
let pool_step params ~budget ~sp ~pool ~iteration state =
  let candidates = score_candidates params ~sp state in
  journal_iter_begin ~iteration ~pool:(List.length candidates);
  let cost, acceptable = metrics params ~budget in
  let slim (pair, o, _) = (pair, Option.map slim_of_outcome o) in
  (* Evaluate [pairs] as contiguous slices of at most [slice] candidates
     per task, all in flight at once; flattening the slice replies in
     submission order restores the original score order. *)
  let eval_batch ~slice pairs =
    let rec slices = function
      | [] -> []
      | ps ->
        let s, rest = Hlts_util.Listx.split_at slice ps in
        s :: slices rest
    in
    let tickets =
      List.map (fun s -> (s, Pool.submit pool (W_try s))) (slices pairs)
    in
    List.concat_map
      (fun (s, t) ->
        let (replies : wreply), task_tally = Pool.await pool t in
        (* Only the samples: the task-level tally carries the pool's own
           task_seconds probe (metrics-only, order-independent). Counts
           and decisions stay with the per-attempt tallies below so the
           replayed journal is exactly the sequential scan's. *)
        Pool.replay
          { task_tally with Pool.counts = []; gauges = []; decisions = [] };
        List.map2 (fun pair (o, tally) -> (pair, o, tally)) s replies)
      tickets
  in
  let top, rest = Hlts_util.Listx.split_at params.k candidates in
  (* one candidate per task: the top-k are few and spread widest *)
  let top_replies = eval_batch ~slice:1 top in
  List.iter (fun (_, _, tally) -> Pool.replay tally) top_replies;
  let best_of_top =
    List.mapi (fun i (_, o, _) -> (i, o)) top_replies
    |> List.filter_map (fun (i, o) ->
           match o with
           | Some o when acceptable o -> Some (i, o)
           | Some _ | None -> None)
    |> Hlts_util.Listx.min_by (fun (_, o) -> cost o)
  in
  let top_slims = List.map slim top_replies in
  match best_of_top with
  | Some (wi, o) ->
    journal_verdicts params ~budget top_slims ~winner:(Some wi);
    let c = cost o in
    journal_committed o ~reason:(top_reason params (wi + 1)) ~cost:c;
    Some (o, c)
  | None ->
    journal_verdicts params ~budget top_slims ~winner:None;
    (* Speculation width follows the hardware, not the lane count: a
       sequential pool (parallelism 1) widens one candidate at a time,
       exactly like the serial scan. *)
    let par = max 1 (Pool.parallelism pool) in
    let widen_slice = if par = 1 then 1 else params.k in
    let chunk_size = if par = 1 then 1 else max 1 (par * params.k) in
    let widened = ref 0 in
    let scanned = ref [] in
    let rec widen_chunks rest =
      match rest with
      | [] -> None
      | _ -> begin
        let chunk, rest' = Hlts_util.Listx.split_at chunk_size rest in
        let rec scan = function
          | [] -> None
          | ((_, o, tally) as reply) :: tl -> begin
            incr widened;
            scanned := slim reply :: !scanned;
            Pool.replay tally;
            match o with
            | Some o when acceptable o ->
              let waste = List.length tl in
              if waste > 0 then
                Obs.count ~by:waste "synth.pool.speculative_waste";
              Some (o, cost o)
            | Some _ | None -> scan tl
          end
        in
        match scan (eval_batch ~slice:widen_slice chunk) with
        | Some found -> Some found
        | None -> widen_chunks rest'
      end
    in
    let found = widen_chunks rest in
    Obs.set sp "widened" (Obs.Int !widened);
    if !widened > 0 then Obs.count ~by:!widened "synth.scans_widened";
    let slims_w = List.rev !scanned in
    (match found with
    | Some (o, c) ->
      journal_verdicts params ~budget slims_w ~winner:(Some (!widened - 1));
      journal_committed o ~reason:(widened_reason !widened) ~cost:c;
      Some (o, c)
    | None ->
      journal_verdicts params ~budget slims_w ~winner:None;
      None)

let run ?(params = default_params) ?jobs dfg =
  let jobs = match jobs with Some j -> j | None -> Pool.default_jobs () in
  Obs.span ~cat:"synth" ~res:true "synth.run" @@ fun run_sp ->
  let critical_path = Hlts_dfg.Dfg.longest_chain dfg in
  let budget =
    if params.latency_factor = infinity then max_int
    else
      int_of_float (ceil (params.latency_factor *. float_of_int critical_path))
  in
  let reg_unit = Hlts_floorplan.Module_library.reg_area ~bits:params.bits in
  let state0 = State.init dfg in
  let loop ~step_fn ~on_commit =
    let rec loop state records iteration =
      if iteration >= params.max_iterations then (state, records, iteration)
      else
        let stepped =
          (* One span per Algorithm-1 iteration. A committed merge carries
             accepted/dE/dH/cost args; the terminating scan (no acceptable
             merger anywhere) carries only pool/widened. *)
          Obs.span ~cat:"merge" "synth.iteration" (fun sp ->
              Obs.set sp "iteration" (Obs.Int iteration);
              match step_fn ~sp ~iteration state with
              | None -> None
              | Some (outcome, cost) ->
                Obs.set sp "accepted" (Obs.Str outcome.Merge.description);
                Obs.set sp "dE" (Obs.Int outcome.Merge.delta_e);
                Obs.set sp "dH_mm2" (Obs.Float outcome.Merge.delta_h);
                Obs.set sp "dH_units"
                  (Obs.Float (outcome.Merge.delta_h /. reg_unit));
                Obs.set sp "cost" (Obs.Float cost);
                Obs.count "synth.commits";
                Some (outcome, cost))
        in
        match stepped with
        | None -> (state, records, iteration)
        | Some (outcome, cost) ->
          let state' = outcome.Merge.state in
          let seq_depth = Testability.seq_depth_total (State.analysis state') in
          let record =
            {
              iteration;
              description = outcome.Merge.description;
              delta_e = outcome.Merge.delta_e;
              delta_h = outcome.Merge.delta_h;
              cost;
              seq_depth;
            }
          in
          if Obs.enabled () then
            Obs.journal
              (Obs.Journal.Testability_snapshot
                 {
                   seq_depth;
                   registers =
                     List.length state'.State.binding.Hlts_alloc.Binding.registers;
                   units = List.length state'.State.binding.Hlts_alloc.Binding.fus;
                   sched_len = Hlts_sched.Schedule.length state'.State.schedule;
                   area_mm2 = State.area state' ~bits:params.bits;
                 });
          (* One resource reading per committed merger: cheap enough at
             commit granularity and exactly the cadence the heartbeat
             and memory panel want. Gauges only — never digested. *)
          Obs.Res.emit ();
          on_commit state';
          loop state' (record :: records) (iteration + 1)
    in
    loop state0 [] 0
  in
  let final, records, iterations =
    (* Serial when one job was asked for, or when the caller is itself
       a pool worker (pools never nest). *)
    if jobs > 1 && not (Pool.in_worker ()) then begin
      (* Force the initial state's H (with its consistency check and
         data-path view) before the workers start so they share it
         already-evaluated: forcing the shared lazies here
         happens-before every Domain.spawn, so workers only ever read
         them forced (no counters are emitted by the forcing, so
         observability is unchanged). *)
      ignore (State.area state0 ~bits:params.bits);
      (* One base-state slot per sharing group, not per lane and not a
         single shared ref: a [W_state]-built state carries
         unsynchronized lazy caches, so it must never be visible to two
         concurrent workers — but lanes in the same group run
         sequentially, so they share one re-based state, whose
         closure/memo caches warm once per domain per iteration instead
         of once per lane. *)
      let worker_states = Array.make jobs state0 in
      (* Each attempt is evaluated under its own capture sink so its
         counters travel back individually: the parent replays only the
         attempts the sequential scan would have made, at slice
         granularity that split would otherwise be lost. In an
         uninstrumented run the pool installs no capture sink in the
         worker, [Obs.enabled ()] is false here, and the per-attempt
         capture is skipped entirely — every attempt shares one empty
         tally. *)
      let empty_tally =
        { Pool.counts = []; samples = []; gauges = []; decisions = [] }
      in
      let try_one base pair =
        if not (Obs.enabled ()) then
          (attempt base ~bits:params.bits pair, empty_tally)
        else
        let counts = ref [] and samples = ref [] and gauges = ref [] in
        let decisions = ref [] in
        let capture =
          {
            Obs.emit =
              (function
                | Obs.Count { name; delta; _ } ->
                  counts := (name, delta) :: !counts
                | Obs.Sample { name; v; _ } ->
                  samples := (name, v) :: !samples
                | Obs.Gauge { name; v; _ } ->
                  gauges := (name, v) :: !gauges
                | Obs.Decision { d; _ } -> decisions := d :: !decisions
                | _ -> ());
            flush = ignore;
          }
        in
        let o =
          Obs.with_sink capture (fun () -> attempt base ~bits:params.bits pair)
        in
        ( o,
          {
            Pool.counts = List.rev !counts;
            samples = List.rev !samples;
            gauges = List.rev !gauges;
            decisions = List.rev !decisions;
          } )
      in
      let wf : wtask -> wreply = function
        | W_state (cons, schedule, binding, area) ->
          (* The base state's H comes seeded with the re-base: without
             it each worker would floorplan the committed design once
             per iteration just to recompute a number the parent
             already has. E is the schedule length. *)
          worker_states.(Pool.worker_group ()) <-
            State.make
              ~area:[ (params.bits, area) ]
              ~dfg ~cons ~schedule ~binding ();
          []
        | W_try pairs ->
          let base = worker_states.(Pool.worker_group ()) in
          List.map (try_one base) pairs
      in
      Pool.with_pool ~name:"synth.pool" ~jobs wf @@ fun pool ->
      loop
        ~step_fn:(fun ~sp ~iteration state ->
          pool_step params ~budget ~sp ~pool ~iteration state)
        ~on_commit:(fun s' ->
          Pool.broadcast pool
            (W_state
               ( s'.State.cons,
                 s'.State.schedule,
                 s'.State.binding,
                 State.area s' ~bits:params.bits )))
    end
    else
      loop
        ~step_fn:(fun ~sp ~iteration state ->
          step params ~budget ~sp ~iteration state)
        ~on_commit:ignore
  in
  Obs.set run_sp "iterations" (Obs.Int iterations);
  { final; records = List.rev records; iterations }
