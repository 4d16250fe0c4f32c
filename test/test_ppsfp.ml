(* Property and unit tests for the word-parallel (PPSFP) fault-grading
   engine: random sequential netlists x the whole fault universe x
   random 64-lane stimuli, and the collapsed universes of two real data
   paths, must agree bit-for-bit with the per-fault full-sweep reference
   ({!Oracle.replay_full}) on detection, detecting cycle and lane-diff
   word — and the whole-run digest must be invariant under the worker
   count. *)

module N = Hlts_netlist.Netlist
module B = N.Builder
module F = Hlts_fault.Fault
module Sim = Hlts_sim.Sim
module Ppsfp = Hlts_sim.Ppsfp
module Atpg = Hlts_atpg.Atpg
module Podem = Hlts_atpg.Podem
module Obs = Hlts_obs
module Rng = Hlts_util.Rng

(* Same random-netlist soup as test_replay.ml: a few PI buses, random
   gates over everything reachable, DFF feedback closed through
   placeholder nets. *)
let random_netlist st =
  let b = B.create () in
  let n_pis = 1 + Random.State.int st 3 in
  let pis =
    List.concat
      (List.init n_pis (fun i ->
           B.input b (Printf.sprintf "pi%d" i) (1 + Random.State.int st 2)))
  in
  let n_fb = Random.State.int st 3 in
  let feedback = List.init n_fb (fun _ -> B.fresh b) in
  let nets = ref (pis @ feedback) in
  let pick () = List.nth !nets (Random.State.int st (List.length !nets)) in
  let kinds =
    [| N.G_and; N.G_or; N.G_nand; N.G_nor; N.G_xor; N.G_xnor; N.G_not;
       N.G_buf; N.G_mux2 |]
  in
  let n_gates = 3 + Random.State.int st 14 in
  for _ = 1 to n_gates do
    let kind = kinds.(Random.State.int st (Array.length kinds)) in
    let inputs =
      match kind with
      | N.G_not | N.G_buf -> [ pick () ]
      | N.G_mux2 -> [ pick (); pick (); pick () ]
      | _ -> [ pick (); pick () ]
    in
    nets := B.gate b kind inputs :: !nets
  done;
  List.iter
    (fun placeholder ->
      let q = B.dff b (pick ()) in
      B.drive b ~dst:placeholder ~src:q)
    feedback;
  let n_pos = 1 + Random.State.int st 3 in
  B.output b "po" (List.init n_pos (fun _ -> pick ()));
  B.finish b

let random_stimuli st rng pi_nets =
  let cycles = 1 + Random.State.int st 6 in
  Array.init cycles (fun _ ->
      List.map (fun net -> (net, Rng.word rng)) pi_nets)

let show = function
  | None -> "undetected"
  | Some (c, d) -> Printf.sprintf "(%d, %Lx)" c d

(* --- Ppsfp.grade vs Oracle.replay_full ----------------------------------- *)

(* The first fault on which PPSFP and the per-fault reference disagree —
   on the verdict, or on the analytic evals formula the ATPG driver
   charges for it — described, or None. *)
let disagreement ?mask sim trajectory faults =
  let verdicts = Ppsfp.grade ?mask (Ppsfp.create sim) trajectory faults in
  let m = Sim.machine sim in
  let rec go i = function
    | [] -> None
    | fault :: rest ->
      let ev = ref 0 in
      let expect = Oracle.replay_full ?mask sim m fault trajectory ~evals:ev in
      let analytic =
        match verdicts.(i) with
        | Some (cyc, _) -> cyc + 1
        | None -> Sim.trajectory_cycles trajectory
      in
      if verdicts.(i) <> expect then
        Some
          (Printf.sprintf "%s: ppsfp %s, oracle %s" (F.to_string fault)
             (show verdicts.(i)) (show expect))
      else if analytic <> !ev then
        Some
          (Printf.sprintf "%s: analytic evals %d vs %d" (F.to_string fault)
             analytic !ev)
      else go (i + 1) rest
  in
  go 0 faults

(* The case keeps the name it had when the reference was Sim.replay_full;
   it is the same function, now Oracle.replay_full. *)
let prop_grade_matches_oracle =
  QCheck.Test.make ~name:"Ppsfp.grade = Sim.replay_full" ~count:500
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let rng = Rng.create (seed + 1) in
      let pi_nets = List.concat_map (fun (_, bus) -> bus) c.N.pis in
      let stimuli = random_stimuli st rng pi_nets in
      let trajectory = Sim.record sim stimuli in
      let mask = if Random.State.bool st then -1L else Rng.word rng in
      (* the whole universe at once: packing, cone unions, injection
         sites and lane scatter all get exercised on every case *)
      match disagreement ~mask sim trajectory (F.universe c) with
      | None -> true
      | Some msg -> QCheck.Test.fail_reportf "seed %d %s" seed msg)

(* --- Atpg.pack_tests vs Oracle.pack_tests --------------------------------- *)

(* Up to 64 random tests of up to 6 frames over a random netlist. Each
   frame assigns a random subset of all nets (non-PI nets included,
   which packing ignores), each net at most once, in random order. *)
let prop_pack_tests_matches_oracle =
  QCheck.Test.make ~name:"Atpg.pack_tests = Oracle.pack_tests" ~count:300
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let frame () =
        List.filter_map
          (fun net ->
            if Random.State.int st 3 = 0 then None
            else Some (net, Random.State.bool st))
          (List.init c.N.n_nets Fun.id)
        |> List.map (fun a -> (Random.State.bits st, a))
        |> List.sort compare |> List.map snd
      in
      let tests =
        List.init (Random.State.int st 65) (fun _ ->
            { Podem.t_frames = Array.init (Random.State.int st 7) (fun _ -> frame ()) })
      in
      let got = Sim.trajectory_stimuli (Atpg.pack_tests sim tests)
      and want = Sim.trajectory_stimuli (Oracle.pack_tests sim tests) in
      got = want
      || QCheck.Test.fail_reportf "seed %d: %d tests pack differently" seed
           (List.length tests))

(* --- real data paths ------------------------------------------------------ *)

let datapath bits =
  let d = Hlts_dfg.Benchmarks.toy in
  let s = Hlts_sched.Basic.asap_exn (Hlts_sched.Constraints.of_dfg d) in
  let binding = Hlts_alloc.Binding.allocate d s in
  let etpn = Hlts_etpn.Etpn.build_exn d s binding in
  Hlts_netlist.Expand.circuit etpn ~bits

let ex_datapath bits =
  let o =
    Hlts_eval.Eval.outcome Hlts_synth.Flows.Ours Hlts_dfg.Benchmarks.ex ~bits
  in
  Hlts_netlist.Expand.circuit o.Hlts_synth.Flows.etpn ~bits

(* The random phase's trajectory shape: 12 cycles on 2 live lanes, the
   other 62 held at zero and masked out. *)
let random_trajectory sim =
  let rng = Rng.create 1 in
  let stimuli =
    Array.init 12 (fun _ ->
        Array.to_list
          (Array.map
             (fun net -> (net, Int64.logand 3L (Rng.word rng)))
             (Sim.pi_nets sim)))
  in
  (3L, Sim.record sim stimuli)

(* The fault-dropping trajectory shape: the first 64 PODEM tests of the
   universe packed one per lane, shorter tests and unassigned inputs
   reading 0. *)
let podem_trajectory sim faults =
  let ws = Podem.workspace sim in
  let rec gen acc n = function
    | [] -> List.rev acc
    | _ when n = 64 -> List.rev acc
    | f :: rest -> (
      match Podem.generate ws ~max_frames:5 ~max_backtracks:20 f with
      | Podem.Detected t, _ -> gen (t :: acc) (n + 1) rest
      | (Podem.Aborted | Podem.No_test_in_frames), _ -> gen acc n rest)
  in
  let tests = Array.of_list (gen [] 0 faults) in
  let depth =
    Array.fold_left (fun d t -> max d (Array.length t.Podem.t_frames)) 0 tests
  in
  let stimuli =
    Array.init depth (fun cycle ->
        Array.to_list
          (Array.map
             (fun net ->
               let word = ref 0L in
               Array.iteri
                 (fun lane t ->
                   if
                     cycle < Array.length t.Podem.t_frames
                     && List.assoc_opt net t.Podem.t_frames.(cycle) = Some true
                   then word := Int64.logor !word (Int64.shift_left 1L lane))
                 tests;
               (net, !word))
             (Sim.pi_nets sim)))
  in
  (Array.length tests, Sim.record sim stimuli)

let test_real_datapath circuit () =
  let c = circuit () in
  let sim = Sim.compile c in
  let faults = F.collapsed_universe c in
  let mask, random = random_trajectory sim in
  let n_tests, packed = podem_trajectory sim faults in
  Alcotest.(check bool) "PODEM fills lanes" true (n_tests > 1);
  List.iter
    (fun (label, mask, trajectory) ->
      match disagreement ?mask sim trajectory faults with
      | None -> ()
      | Some msg -> Alcotest.failf "%s trajectory: %s" label msg)
    [ ("random", Some mask, random); ("podem", None, packed) ]

(* --- units ---------------------------------------------------------------- *)

(* pi(2 bits) -> xor -> po, plus a buffered copy: tiny enough that the
   whole universe fits one partial word *)
let tiny_netlist () =
  let b = B.create () in
  let pis = B.input b "pi" 2 in
  let a, y = (List.nth pis 0, List.nth pis 1) in
  let x = B.gate b N.G_xor [ a; y ] in
  let bf = B.gate b N.G_buf [ x ] in
  B.output b "po" [ x; bf ];
  B.finish b

let test_partial_word () =
  let c = tiny_netlist () in
  let sim = Sim.compile c in
  let faults = F.universe c in
  Alcotest.(check bool) "fits one word" true
    (List.length faults < Ppsfp.max_faults_per_word);
  let stimuli = [| [ (List.nth (List.assoc "pi" c.N.pis) 0, 1L) ] |] in
  let trajectory = Sim.record sim stimuli in
  let pp = Ppsfp.create sim in
  let summary = Obs.Summary.create () in
  let verdicts =
    Obs.with_sink (Obs.Summary.sink summary) (fun () ->
        Ppsfp.grade pp trajectory faults)
  in
  Alcotest.(check int) "one word simulated" 1
    (Obs.Summary.counter summary "sim.words_simulated");
  (match List.assoc_opt "sim.faults_per_word" (Obs.Summary.samples summary) with
  | None -> Alcotest.fail "no faults_per_word sample"
  | Some s ->
    Alcotest.(check (float 0.0)) "partial occupancy"
      (float_of_int (List.length faults))
      s.Obs.Summary.max_v);
  let oracle = Sim.machine sim in
  List.iteri
    (fun i fault ->
      let ev = ref 0 in
      Alcotest.(check bool)
        (Printf.sprintf "verdict %s" (F.to_string fault))
        true
        (verdicts.(i)
        = Oracle.replay_full sim oracle fault trajectory ~evals:ev))
    faults

(* All-zero stimuli over pi -> buf -> po make every stuck-at-0 fault
   invisible: the good value already equals the stuck value everywhere,
   so every cycle is quiet and the word never sweeps a single gate. *)
let test_all_quiet_word () =
  let b = B.create () in
  let pis = B.input b "pi" 1 in
  let bf = B.gate b N.G_buf [ List.hd pis ] in
  B.output b "po" [ bf ];
  let c = B.finish b in
  let sim = Sim.compile c in
  let faults =
    List.filter (fun f -> f.F.f_stuck = F.Stuck_at_0) (F.universe c)
  in
  Alcotest.(check bool) "has faults" true (faults <> []);
  let stimuli = Array.make 3 [ (List.hd pis, 0L) ] in
  let trajectory = Sim.record sim stimuli in
  let pp = Ppsfp.create sim in
  let summary = Obs.Summary.create () in
  let verdicts =
    Obs.with_sink (Obs.Summary.sink summary) (fun () ->
        Ppsfp.grade pp trajectory faults)
  in
  Array.iter
    (fun v -> Alcotest.(check bool) "undetected" true (v = None))
    verdicts;
  Alcotest.(check int) "one word simulated" 1
    (Obs.Summary.counter summary "sim.words_simulated");
  (* one pattern-lane class (all 64 stimulus columns are zero), and all
     3 of its cycles skipped as quiet *)
  Alcotest.(check int) "one lane-class sweep" 1
    (Obs.Summary.counter summary "sim.ppsfp_lane_sweeps");
  Alcotest.(check int) "every cycle quiet" 3
    (Obs.Summary.counter summary "sim.ppsfp_quiet_cycles")

(* A single-fanout BUF makes input and output s-a-0 equivalent: with
   [~collapse] both must share one bit lane and come back with one
   identical verdict. *)
let test_collapsed_pair_shares_lane () =
  let b = B.create () in
  let pis = B.input b "pi" 1 in
  let bf = B.gate b N.G_buf [ List.hd pis ] in
  B.output b "po" [ bf ];
  let c = B.finish b in
  let sim = Sim.compile c in
  let pi = List.hd pis in
  let pair =
    [ { F.f_net = pi; f_stuck = F.Stuck_at_0 };
      { F.f_net = bf; f_stuck = F.Stuck_at_0 } ]
  in
  let stimuli = Array.make 2 [ (pi, -1L) ] in
  let trajectory = Sim.record sim stimuli in
  let pp = Ppsfp.create sim in
  let collapse = F.collapse_map c in
  Alcotest.(check bool) "pair collapses" true
    (collapse (List.hd pair) = List.nth pair 1);
  let plan = Ppsfp.plan ~collapse pp pair in
  let summary = Obs.Summary.create () in
  let verdicts =
    Obs.with_sink (Obs.Summary.sink summary) (fun () ->
        Ppsfp.grade_words pp plan (Ppsfp.batch pp trajectory))
  in
  (match List.assoc_opt "sim.faults_per_word" (Obs.Summary.samples summary) with
  | None -> Alcotest.fail "no faults_per_word sample"
  | Some s ->
    Alcotest.(check (float 0.0)) "one shared lane" 1.0 s.Obs.Summary.max_v);
  Alcotest.(check bool) "detected in one word" true
    (verdicts.(0) = Some (0, -1L));
  Alcotest.(check bool) "member fans out" true (verdicts.(0) = verdicts.(1))

(* --- Atpg.run -j determinism --------------------------------------------- *)

let strip_times r =
  { r with Atpg.seconds = 0.0; random_seconds = 0.0; det_seconds = 0.0 }

let test_jobs_identical () =
  let c = datapath 4 in
  let r1 = Atpg.run ~jobs:1 c in
  let r3 = Atpg.run ~jobs:3 c in
  Alcotest.(check string) "digest invariant under jobs" r1.Atpg.detect_digest
    r3.Atpg.detect_digest;
  Alcotest.(check bool) "results identical" true
    (strip_times r1 = strip_times r3)

let () =
  Alcotest.run "hlts_ppsfp"
    [
      ( "grade",
        [
          QCheck_alcotest.to_alcotest prop_grade_matches_oracle;
          Alcotest.test_case "toy datapath@4" `Quick
            (test_real_datapath (fun () -> datapath 4));
          Alcotest.test_case "ex@4" `Quick
            (test_real_datapath (fun () -> ex_datapath 4));
          QCheck_alcotest.to_alcotest prop_pack_tests_matches_oracle;
        ] );
      ( "words",
        [
          Alcotest.test_case "partial word" `Quick test_partial_word;
          Alcotest.test_case "all-quiet word" `Quick test_all_quiet_word;
          Alcotest.test_case "collapsed pair shares a lane" `Quick
            test_collapsed_pair_shares_lane;
        ] );
      ( "atpg",
        [ Alcotest.test_case "-j 3 = -j 1" `Quick test_jobs_identical ] );
    ]
