module Netlist = Hlts_netlist.Netlist
module Fault = Hlts_fault.Fault
module Sim = Hlts_sim.Sim
module Ppsfp = Hlts_sim.Ppsfp
module Pool = Hlts_pool.Pool
module Rng = Hlts_util.Rng
module Obs = Hlts_obs

type config = {
  seed : int;
  random_lanes : int;
  random_cycles : int;
  random_batches : int;
  max_frames : int;
  max_backtracks : int;
  collapse_gate_inputs : bool;
}

let default_config =
  { seed = 1; random_lanes = 2; random_cycles = 12; random_batches = 1;
    max_frames = 5; max_backtracks = 20; collapse_gate_inputs = false }

type result = {
  total_faults : int;
  detected_random : int;
  detected_det : int;
  undetected : int;
  coverage : float;
  test_cycles : int;
  effort : int;
  evals : int;
  seconds : float;
  random_seconds : float;
  det_seconds : float;
  gate_count : int;
  dff_count : int;
  detect_digest : string;
}

(* The grading state of one run: the word-plane scratch, the fault
   collapse map faults share lanes through, and the worker budget. *)
type replayer = {
  rp_ppsfp : Ppsfp.t;
  rp_collapse : Fault.t -> Fault.t;
  rp_jobs : int;
}

(* Grade every fault of [targets] against one recorded trajectory:
   result [i] is fault [i]'s first (cycle, lane-diff word) or None,
   with [evals] advanced exactly as a per-fault replay would have. The
   faults are packed into cone-batched words ({!Ppsfp.plan}), the words
   fan out over the pool when [jobs > 1], and evals are accounted
   analytically: a per-fault replay examines (detection cycle + 1)
   cycles when it detects, all of them when it does not. *)
let grade ?mask rp targets trajectory ~evals =
  let pp = rp.rp_ppsfp in
  Obs.span ~cat:"ppsfp" "atpg.ppsfp" @@ fun sp ->
  let plan = Ppsfp.plan ~collapse:rp.rp_collapse pp targets in
  let batch = Ppsfp.batch ?mask pp trajectory in
  let n_words = Ppsfp.words plan in
  Obs.set sp "faults" (Obs.Int (Ppsfp.fault_count plan));
  Obs.set sp "words" (Obs.Int n_words);
  let map =
    if rp.rp_jobs > 1 && n_words > 1 && not (Pool.in_worker ()) then
      Some
        (fun _worker ids ->
          let jobs = min rp.rp_jobs n_words in
          (* One plane scratch per worker lane instead of the shared
             [pp]: no two lanes may share mutable planes.
             [plan] and [batch] were built parent-side against [pp]
             and are read-only here; they work with any scratch over
             the same compiled Sim.t. *)
          let scratches = Array.make jobs None in
          let grade_in_lane w =
            let lane = Pool.worker_index () in
            let t =
              match scratches.(lane) with
              | Some t -> t
              | None ->
                let t = Ppsfp.create (Ppsfp.sim pp) in
                scratches.(lane) <- Some t;
                t
            in
            Ppsfp.grade_word t plan batch w
          in
          Pool.with_pool ~name:"atpg.ppsfp" ~jobs
            grade_in_lane
            (fun pool -> Pool.map pool ids))
    else None
  in
  let res = Ppsfp.grade_words ?map pp plan batch in
  let cycles = Sim.trajectory_cycles trajectory in
  Array.iter
    (function
      | Some (c, _) -> evals := !evals + c + 1
      | None -> evals := !evals + cycles)
    res;
  res

(* One batch of [lanes] parallel random sequences, recorded as a good
   trajectory. Lanes beyond [lanes] carry constant zeroes, so they can
   never produce a spurious difference. *)
let random_batch sim rng ~lanes cycles =
  let pis = Array.to_list (Sim.pi_nets sim) in
  let mask =
    if lanes >= 64 then -1L
    else Int64.sub (Int64.shift_left 1L lanes) 1L
  in
  let stimuli =
    Array.init cycles (fun _ ->
        List.map (fun net -> (net, Int64.logand mask (Rng.word rng))) pis)
  in
  Sim.record sim stimuli

let first_lane word =
  let rec find i =
    if i >= 64 then 63
    else if Int64.logand (Int64.shift_right_logical word i) 1L = 1L then i
    else find (i + 1)
  in
  find 0

(* Packs up to 64 deterministic tests into lanes and records the good
   trajectory (missing PI assignments are 0). Each cycle's words are
   built in one pass over each lane's assignments, into an array by PI
   position; assignments to non-PI nets are ignored. *)
let pack_tests sim tests =
  let pis = Sim.pi_nets sim in
  let pi_pos = Array.make (Sim.circuit sim).Netlist.n_nets (-1) in
  Array.iteri (fun i net -> pi_pos.(net) <- i) pis;
  let depth =
    List.fold_left (fun acc t -> max acc (Array.length t.Podem.t_frames)) 0 tests
  in
  let stimuli =
    Array.init depth (fun cycle ->
        let words = Array.make (Array.length pis) 0L in
        List.iteri
          (fun lane t ->
            if cycle < Array.length t.Podem.t_frames then
              List.iter
                (fun (net, v) ->
                  let i = pi_pos.(net) in
                  if v && i >= 0 then
                    words.(i) <- Int64.logor words.(i) (Int64.shift_left 1L lane))
                t.Podem.t_frames.(cycle))
          tests;
        Array.to_list (Array.mapi (fun i net -> (net, words.(i))) pis))
  in
  Sim.record sim stimuli

let run ?(config = default_config) ?(jobs = 1) circuit =
  Obs.span ~cat:"atpg" ~res:true "atpg.run" @@ fun run_sp ->
  let t0 = Obs.Clock.now_ns () in
  let sim = Obs.span ~cat:"atpg" "atpg.compile" (fun _ -> Sim.compile circuit) in
  let podem = Podem.workspace sim in
  let faults =
    Fault.collapsed_universe ~gate_inputs:config.collapse_gate_inputs circuit
  in
  let total_faults = List.length faults in
  Obs.set run_sp "faults" (Obs.Int total_faults);
  let rng = Rng.create config.seed in
  let collapse =
    Fault.collapse_map ~gate_inputs:config.collapse_gate_inputs circuit
  in
  let rp =
    { rp_ppsfp = Ppsfp.create sim; rp_collapse = collapse; rp_jobs = jobs }
  in
  let evals = ref 0 in
  let detected_random = ref 0 in
  let test_cycles = ref 0 in
  (* Ordered log of every detection / give-up event; its MD5 is the
     [detect_digest] the bench drift job compares. *)
  let events = Buffer.create 1024 in
  (* ---- random phase ---- *)
  let t_random = Obs.Clock.now_ns () in
  let remaining = ref faults in
  Obs.span ~cat:"atpg" "atpg.random_phase" (fun rsp ->
      for _batch = 1 to config.random_batches do
        if !remaining <> [] then begin
          let trajectory =
            random_batch sim rng ~lanes:config.random_lanes config.random_cycles
          in
          let lane_mask =
            if config.random_lanes >= 64 then -1L
            else Int64.sub (Int64.shift_left 1L config.random_lanes) 1L
          in
          let prefix = Array.make 64 0 in
          let targets = !remaining in
          let verdicts = grade ~mask:lane_mask rp targets trajectory ~evals in
          let ix = ref (-1) in
          remaining :=
            List.filter
              (fun fault ->
                incr ix;
                match verdicts.(!ix) with
                | None -> true
                | Some (cycle, diff) ->
                  incr detected_random;
                  Printf.bprintf events "r %d %d %d %Lx\n"
                    fault.Fault.f_net (Fault.stuck_code fault) cycle diff;
                  let lane = first_lane diff in
                  prefix.(lane) <- max prefix.(lane) (cycle + 1);
                  false)
              targets;
          Array.iter (fun p -> test_cycles := !test_cycles + p) prefix
        end
      done;
      Obs.set rsp "detected" (Obs.Int !detected_random);
      if !detected_random > 0 then
        Obs.count ~by:!detected_random "atpg.detected_random");
  let random_seconds = Obs.Clock.seconds_since t_random in
  (* ---- deterministic phase ---- *)
  let t_det = Obs.Clock.now_ns () in
  let detected_det = ref 0 in
  let implications = ref 0 and backtracks = ref 0 in
  let aborted = ref [] in
  let all_tests = ref [] in
  let pending_tests = ref [] in
  let drop_batch targets =
    match !pending_tests with
    | [] -> targets
    | tests ->
      Obs.span ~cat:"atpg" "atpg.drop_batch" @@ fun _ ->
      let trajectory = pack_tests sim tests in
      pending_tests := [];
      let verdicts = grade rp targets trajectory ~evals in
      let ix = ref (-1) in
      List.filter
        (fun fault ->
          incr ix;
          match verdicts.(!ix) with
          | None -> true
          | Some (cycle, diff) ->
            incr detected_det;
            Printf.bprintf events "d %d %d %d %Lx\n"
              fault.Fault.f_net (Fault.stuck_code fault) cycle diff;
            false)
        targets
  in
  let queue = ref !remaining in
  remaining := [];
  let rec process () =
    match !queue with
    | [] -> ()
    | fault :: rest ->
      queue := rest;
      Obs.count "atpg.faults_tried";
      let verdict, stats =
        Obs.span ~cat:"atpg" "atpg.podem" (fun sp ->
            let (verdict, stats) as r =
              Podem.generate podem ~max_frames:config.max_frames
                ~max_backtracks:config.max_backtracks fault
            in
            Obs.set sp "net" (Obs.Int fault.Fault.f_net);
            Obs.set sp "stuck" (Obs.Int (Fault.stuck_code fault));
            Obs.set sp "frames" (Obs.Int stats.Podem.depth);
            Obs.set sp "implications" (Obs.Int stats.Podem.implications);
            Obs.set sp "backtracks" (Obs.Int stats.Podem.backtracks);
            Obs.set sp "verdict"
              (Obs.Str
                 (match verdict with
                 | Podem.Detected _ -> "d"
                 | Podem.Aborted -> "a"
                 | Podem.No_test_in_frames -> "u"));
            r)
      in
      implications := !implications + stats.Podem.implications;
      backtracks := !backtracks + stats.Podem.backtracks;
      if stats.Podem.backtracks > 0 then
        Obs.count ~by:stats.Podem.backtracks "atpg.backtracks";
      (match verdict with
      | Podem.Detected test ->
        incr detected_det;
        Obs.count "atpg.detected_det";
        Printf.bprintf events "p %d %d %d\n"
          fault.Fault.f_net (Fault.stuck_code fault)
          (Array.length test.Podem.t_frames);
        test_cycles := !test_cycles + Array.length test.Podem.t_frames;
        pending_tests := test :: !pending_tests;
        all_tests := test :: !all_tests;
        if List.length !pending_tests >= 64 then queue := drop_batch !queue
      | Podem.Aborted | Podem.No_test_in_frames ->
        Obs.count "atpg.aborted";
        aborted := fault :: !aborted);
      process ()
  in
  Obs.span ~cat:"atpg" "atpg.det_phase" (fun dsp ->
      process ();
      (* final pass: every generated test gets a chance to catch
         previously aborted faults *)
      let rec chunks = function
        | [] -> ()
        | tests ->
          let batch = Hlts_util.Listx.take 64 tests in
          let rest =
            if List.length tests > 64 then
              List.filteri (fun i _ -> i >= 64) tests
            else []
          in
          pending_tests := batch;
          aborted := drop_batch !aborted;
          chunks rest
      in
      chunks !all_tests;
      Obs.set dsp "detected" (Obs.Int !detected_det);
      Obs.set dsp "backtracks" (Obs.Int !backtracks));
  let det_seconds = Obs.Clock.seconds_since t_det in
  List.iter
    (fun fault ->
      Printf.bprintf events "u %d %d\n" fault.Fault.f_net
        (Fault.stuck_code fault))
    (List.rev !aborted);
  let undetected = List.length !aborted in
  let detected = total_faults - undetected in
  let coverage =
    if total_faults = 0 then 1.0
    else float_of_int detected /. float_of_int total_faults
  in
  let seconds = Obs.Clock.seconds_since t0 in
  Obs.set run_sp "coverage" (Obs.Float coverage);
  Obs.set run_sp "effort" (Obs.Int (!implications + !backtracks + !evals));
  if !evals > 0 then Obs.count ~by:!evals "atpg.evals";
  (* per-phase rates: the random phase grades every collapsed fault, the
     deterministic phase only what survived it *)
  if random_seconds > 0.0 then
    Obs.gauge "atpg.random_faults_per_s"
      (float_of_int total_faults /. random_seconds);
  let det_faults = total_faults - !detected_random in
  if det_seconds > 0.0 && det_faults > 0 then
    Obs.gauge "atpg.det_faults_per_s"
      (float_of_int det_faults /. det_seconds);
  {
    total_faults;
    detected_random = !detected_random;
    detected_det = !detected_det;
    undetected;
    coverage;
    test_cycles = !test_cycles;
    effort = !implications + !backtracks + !evals;
    evals = !evals;
    seconds;
    random_seconds;
    det_seconds;
    gate_count = Sim.gate_count sim;
    dff_count = Array.length circuit.Netlist.dffs;
    detect_digest = Digest.to_hex (Digest.string (Buffer.contents events));
  }

let coverage_pct r = 100.0 *. r.coverage
