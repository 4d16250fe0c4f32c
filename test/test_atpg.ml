(* Tests for Hlts_fault, Hlts_sim and Hlts_atpg: fault model and
   collapsing, simulator semantics, PODEM on known circuits, and the
   end-to-end ATPG pipeline. *)

module N = Hlts_netlist.Netlist
module B = N.Builder
module F = Hlts_fault.Fault
module Sim = Hlts_sim.Sim
module Podem = Hlts_atpg.Podem
module Atpg = Hlts_atpg.Atpg

(* a 1-bit AND with an output DFF: the smallest sequential circuit *)
let and_dff () =
  let b = B.create () in
  let a = B.input b "a" 1 and c = B.input b "c" 1 in
  let g = B.gate b N.G_and [ List.hd a; List.hd c ] in
  let q = B.dff b g in
  B.output b "o" [ q ];
  B.finish b

(* --- fault model -------------------------------------------------------- *)

let test_universe_counts () =
  let c = and_dff () in
  (* nets: a, c, and-output, q = 4 logic nets -> 8 faults *)
  Alcotest.(check int) "8 faults" 8 (List.length (F.universe c))

let test_collapse_buffers () =
  let b = B.create () in
  let a = B.input b "a" 1 in
  let buf = B.gate b N.G_buf [ List.hd a ] in
  let inv = B.gate b N.G_not [ buf ] in
  B.output b "o" [ inv ];
  let c = B.finish b in
  let collapsed = F.collapsed_universe c in
  (* a/0 == buf/0 == inv/1 and a/1 == buf/1 == inv/0: only 2 classes *)
  Alcotest.(check int) "two classes" 2 (List.length collapsed)

let test_collapse_keeps_fanout_stems () =
  let b = B.create () in
  let a = B.input b "a" 1 in
  let buf = B.gate b N.G_buf [ List.hd a ] in
  let x1 = B.gate b N.G_not [ buf ] in
  let x2 = B.gate b N.G_not [ List.hd a ] in
  (* 'a' has fanout 2: not collapsible through the buffer *)
  B.output b "o1" [ x1 ];
  B.output b "o2" [ x2 ];
  let c = B.finish b in
  let collapsed = F.collapsed_universe c in
  Alcotest.(check bool) "a faults kept" true
    (List.exists (fun f -> f.F.f_net = List.hd a) collapsed)

let test_collapse_gate_inputs () =
  (* single-fanout AND inputs: s-a-0 collapses onto the output s-a-0 *)
  let c = and_dff () in
  let base = F.collapsed_universe c in
  let gi = F.collapsed_universe ~gate_inputs:true c in
  Alcotest.(check bool) "strictly smaller" true
    (List.length gi < List.length base);
  (* default is unchanged *)
  Alcotest.(check int) "default untouched" (List.length base)
    (List.length (F.collapsed_universe ~gate_inputs:false c))

let test_collapse_gate_inputs_equivalence () =
  (* every collapsed-away fault must behave exactly like its
     representative: same detection cycle and lane word against the
     same recorded stimuli (the faulty circuits compute the same
     function, so anything else is a collapsing bug) *)
  let d = Hlts_dfg.Benchmarks.toy in
  let s = Hlts_sched.Basic.asap_exn (Hlts_sched.Constraints.of_dfg d) in
  let binding = Hlts_alloc.Binding.allocate d s in
  let etpn = Hlts_etpn.Etpn.build_exn d s binding in
  let c = Hlts_netlist.Expand.circuit etpn ~bits:4 in
  let sim = Sim.compile c in
  let representative = F.collapse_map ~gate_inputs:true c in
  let rng = Hlts_util.Rng.create 7 in
  let pis = List.concat_map (fun (_, bus) -> bus) c.N.pis in
  let stimuli =
    Array.init 20 (fun _ ->
        List.map (fun net -> (net, Hlts_util.Rng.word rng)) pis)
  in
  let trajectory = Sim.record sim stimuli in
  let m = Sim.machine sim in
  List.iter
    (fun fault ->
      let rep = representative fault in
      if rep <> fault then begin
        let e = ref 0 in
        let r1 = Oracle.replay_full sim m fault trajectory ~evals:e in
        let r2 = Oracle.replay_full sim m rep trajectory ~evals:e in
        if r1 <> r2 then
          Alcotest.failf "%s and its representative %s disagree"
            (F.to_string fault) (F.to_string rep)
      end)
    (F.universe c)

(* --- simulator ---------------------------------------------------------- *)

let test_sim_combinational () =
  let c = and_dff () in
  let sim = Sim.compile c in
  let m = Sim.machine sim in
  Sim.set_bus sim m "a" [ 0b1100L ];
  Sim.set_bus sim m "c" [ 0b1010L ];
  Sim.eval sim m;
  Sim.step sim m;
  Sim.eval sim m;
  (* q now holds a&c = 0b1000 per lane *)
  Alcotest.(check bool) "and through dff" true
    (Sim.read_bus sim m "o" = [ 0b1000L ])

let test_sim_fault_injection () =
  let c = and_dff () in
  let sim = Sim.compile c in
  let good = Sim.machine sim and bad = Sim.machine sim in
  (* stuck-at-1 on the AND output: visible under a=c=0 *)
  let and_out = (Array.get c.N.gates 0).N.output in
  let fault = { F.f_net = and_out; f_stuck = F.Stuck_at_1 } in
  Sim.set_bus sim good "a" [ 0L ];
  Sim.set_bus sim good "c" [ 0L ];
  Sim.set_bus sim bad "a" [ 0L ];
  Sim.set_bus sim bad "c" [ 0L ];
  Sim.eval sim good;
  Sim.eval ~fault sim bad;
  Sim.step sim good;
  Sim.step sim bad;
  Sim.eval sim good;
  Sim.eval ~fault sim bad;
  Alcotest.(check bool) "fault visible" true (Sim.po_diff sim good bad <> 0L)

let test_sim_deterministic () =
  let c = and_dff () in
  let sim = Sim.compile c in
  let run () =
    let m = Sim.machine sim in
    Sim.set_bus sim m "a" [ 123L ];
    Sim.set_bus sim m "c" [ 456L ];
    Sim.eval sim m;
    Sim.step sim m;
    Sim.eval sim m;
    Sim.read_bus sim m "o"
  in
  Alcotest.(check bool) "same" true (run () = run ())

(* --- PODEM -------------------------------------------------------------- *)

let test_podem_detects_all_and_dff () =
  let c = and_dff () in
  let ws = Podem.workspace (Sim.compile c) in
  List.iter
    (fun f ->
      match Podem.generate ws ~max_frames:3 ~max_backtracks:20 f with
      | Podem.Detected _, _ -> ()
      | (Podem.Aborted | Podem.No_test_in_frames), _ ->
        Alcotest.failf "missed %s" (F.to_string f))
    (F.collapsed_universe c)

let test_podem_tests_replay () =
  (* every generated test, replayed on the event simulator, must actually
     expose the fault *)
  let c = and_dff () in
  let sim = Sim.compile c in
  let pis = List.concat_map (fun (_, bus) -> bus) c.N.pis in
  let pos = List.concat_map (fun (_, bus) -> bus) c.N.pos in
  let ws = Podem.workspace sim in
  List.iter
    (fun f ->
      match Podem.generate ws ~max_frames:3 ~max_backtracks:20 f with
      | Podem.Detected test, _ ->
        let good = Sim.machine sim and bad = Sim.machine sim in
        let detected = ref false in
        Array.iter
          (fun frame ->
            List.iter
              (fun net ->
                let w =
                  match List.assoc_opt net frame with
                  | Some true -> 1L
                  | Some false | None -> 0L
                in
                good.Sim.values.(net) <- w;
                bad.Sim.values.(net) <- w)
              pis;
            Sim.eval sim good;
            Sim.eval ~fault:f sim bad;
            if
              List.exists
                (fun po -> good.Sim.values.(po) <> bad.Sim.values.(po))
                pos
            then detected := true;
            Sim.step sim good;
            Sim.step sim bad)
          test.Podem.t_frames;
        Alcotest.(check bool) (F.to_string f ^ " replays") true !detected
      | (Podem.Aborted | Podem.No_test_in_frames), _ ->
        Alcotest.failf "missed %s" (F.to_string f))
    (F.collapsed_universe c)

let test_podem_needs_frames_for_depth () =
  (* two DFFs in series: observing the input needs 3 frames *)
  let b = B.create () in
  let a = B.input b "a" 1 in
  let inv = B.gate b N.G_not [ List.hd a ] in
  let q1 = B.dff b inv in
  let q1b = B.gate b N.G_not [ q1 ] in
  let q2 = B.dff b q1b in
  B.output b "o" [ q2 ];
  let c = B.finish b in
  let ws = Podem.workspace (Sim.compile c) in
  let fault = { F.f_net = List.hd a; f_stuck = F.Stuck_at_0 } in
  (match Podem.generate ws ~max_frames:2 ~max_backtracks:50 fault with
  | Podem.Detected _, _ -> Alcotest.fail "2 frames cannot observe depth-2"
  | (Podem.No_test_in_frames | Podem.Aborted), _ -> ());
  match Podem.generate ws ~max_frames:3 ~max_backtracks:50 fault with
  | Podem.Detected test, _ ->
    Alcotest.(check int) "3-frame test" 3 (Array.length test.Podem.t_frames)
  | (Podem.No_test_in_frames | Podem.Aborted), _ ->
    Alcotest.fail "3 frames should suffice"

(* --- end-to-end ---------------------------------------------------------- *)

let datapath bits =
  let d = Hlts_dfg.Benchmarks.toy in
  let s = Hlts_sched.Basic.asap_exn (Hlts_sched.Constraints.of_dfg d) in
  let binding = Hlts_alloc.Binding.allocate d s in
  let etpn = Hlts_etpn.Etpn.build_exn d s binding in
  Hlts_netlist.Expand.circuit etpn ~bits

let test_atpg_full_run () =
  let r = Atpg.run (datapath 4) in
  Alcotest.(check bool) "high coverage" true (Atpg.coverage_pct r > 80.0);
  Alcotest.(check int) "accounting" r.Atpg.total_faults
    (r.Atpg.detected_random + r.Atpg.detected_det + r.Atpg.undetected);
  Alcotest.(check bool) "cycles positive" true (r.Atpg.test_cycles > 0);
  Alcotest.(check bool) "effort positive" true (r.Atpg.effort > 0)

let test_atpg_deterministic () =
  let r1 = Atpg.run (datapath 4) and r2 = Atpg.run (datapath 4) in
  Alcotest.(check bool) "identical" true
    (r1.Atpg.coverage = r2.Atpg.coverage
    && r1.Atpg.test_cycles = r2.Atpg.test_cycles
    && r1.Atpg.effort = r2.Atpg.effort)

let test_atpg_seed_sensitivity () =
  let cfg seed = { Atpg.default_config with Atpg.seed } in
  let r1 = Atpg.run ~config:(cfg 1) (datapath 4) in
  let r5 = Atpg.run ~config:(cfg 5) (datapath 4) in
  (* both valid runs; coverages may differ but stay in a sane band *)
  Alcotest.(check bool) "bands" true
    (Atpg.coverage_pct r1 > 60.0 && Atpg.coverage_pct r5 > 60.0)

let test_atpg_more_random_helps () =
  let weak =
    { Atpg.default_config with Atpg.random_lanes = 1; random_cycles = 2;
      max_backtracks = 1; max_frames = 1 }
  in
  let strong =
    { Atpg.default_config with Atpg.random_lanes = 64; random_cycles = 32;
      random_batches = 2 }
  in
  let c = datapath 4 in
  let rw = Atpg.run ~config:weak c and rs = Atpg.run ~config:strong c in
  Alcotest.(check bool) "monotone-ish" true (rs.Atpg.coverage >= rw.Atpg.coverage)

let test_atpg_lane_masking () =
  (* lanes=1 must not use information from other lanes *)
  let cfg = { Atpg.default_config with Atpg.random_lanes = 1 } in
  let r = Atpg.run ~config:cfg (datapath 4) in
  Alcotest.(check bool) "valid" true
    (r.Atpg.coverage >= 0.0 && r.Atpg.coverage <= 1.0)

(* --- BIST ----------------------------------------------------------------- *)

let test_bist_runs () =
  let r = Hlts_atpg.Bist.run (datapath 4) in
  Alcotest.(check bool) "coverage in range" true
    (r.Hlts_atpg.Bist.coverage >= 0.0 && r.Hlts_atpg.Bist.coverage <= 1.0);
  Alcotest.(check bool) "detects most" true
    (Hlts_atpg.Bist.coverage_pct r > 60.0);
  Alcotest.(check int) "session length recorded" 48
    r.Hlts_atpg.Bist.session_cycles

let test_bist_deterministic () =
  let r1 = Hlts_atpg.Bist.run (datapath 4) in
  let r2 = Hlts_atpg.Bist.run (datapath 4) in
  Alcotest.(check int) "same detected" r1.Hlts_atpg.Bist.detected
    r2.Hlts_atpg.Bist.detected

let test_bist_longer_session_helps () =
  let cfg cycles = { Hlts_atpg.Bist.default_config with Hlts_atpg.Bist.cycles } in
  let c = datapath 4 in
  let short = Hlts_atpg.Bist.run ~config:(cfg 8) c in
  let long = Hlts_atpg.Bist.run ~config:(cfg 128) c in
  Alcotest.(check bool) "monotone-ish" true
    (long.Hlts_atpg.Bist.coverage >= short.Hlts_atpg.Bist.coverage)

(* --- golden table cells --------------------------------------------------- *)

(* The 24 cells of Tables 1-3 at 4 and 8 bit as the tables build them,
   then Ours at 16 bit on the three table designs and at 4/8/16 bit on
   ewf, paulin and tseng: [Synth.default_params] at 8-bit structure,
   expanded at the cell's width, ATPG seed 1. One line per cell with its
   deterministic ATPG outputs, the fault-simulation counters of a
   Summary sink last. *)
let table_cell_lines () =
  let params = { Hlts_synth.Synth.default_params with Hlts_synth.Synth.bits = 8 } in
  let config = { Atpg.default_config with Atpg.seed = 1 } in
  let line name approach o bits =
    let c = Hlts_netlist.Expand.circuit o.Hlts_synth.Flows.etpn ~bits in
    let summary = Hlts_obs.Summary.create () in
    let r =
      Hlts_obs.with_sink (Hlts_obs.Summary.sink summary) (fun () ->
          Atpg.run ~config c)
    in
    let sample_mean key =
      match List.assoc_opt key (Hlts_obs.Summary.samples summary) with
      | Some s when s.Hlts_obs.Summary.n > 0 ->
        s.Hlts_obs.Summary.sum /. float_of_int s.Hlts_obs.Summary.n
      | Some _ | None -> 0.0
    in
    Printf.sprintf
      "%s %s %d total_faults=%d detected_random=%d detected_det=%d \
       undetected=%d test_cycles=%d effort=%d evals=%d detect_digest=%s \
       coverage=%h words_simulated=%d mean_faults_per_word=%h \
       mean_cone_gates=%h"
      name
      (Hlts_synth.Flows.approach_name approach)
      bits r.Atpg.total_faults r.Atpg.detected_random r.Atpg.detected_det
      r.Atpg.undetected r.Atpg.test_cycles r.Atpg.effort r.Atpg.evals
      r.Atpg.detect_digest r.Atpg.coverage
      (Hlts_obs.Summary.counter summary "sim.words_simulated")
      (sample_mean "sim.faults_per_word")
      (sample_mean "sim.cone_gates")
  in
  let cells widths approaches designs =
    List.concat_map
      (fun (name, dfg) ->
        List.concat_map
          (fun approach ->
            let o = Hlts_synth.Flows.synthesize ~params approach dfg in
            List.map (line name approach o) widths)
          approaches)
      designs
  in
  let tables =
    Hlts_dfg.Benchmarks.[ ("ex", ex); ("dct", dct); ("diffeq", diffeq) ]
  and extras =
    Hlts_dfg.Benchmarks.[ ("ewf", ewf); ("paulin", paulin); ("tseng", tseng) ]
  and ours = [ Hlts_synth.Flows.Ours ] in
  cells [ 4; 8 ] Hlts_eval.Experiments.approaches tables
  @ cells [ 16 ] ours tables
  @ cells [ 4; 8; 16 ] ours extras

(* The first 24 lines' fields up to [detect_digest] were pinned at the
   commit before the PODEM sweeps kept their own state: no change to
   the engine may move any of these outputs. *)
let test_table_cells_golden () =
  Golden.check "atpg_table_cells.txt" (table_cell_lines ())

let () =
  Alcotest.run "hlts_atpg"
    [
      ( "fault",
        [
          Alcotest.test_case "universe" `Quick test_universe_counts;
          Alcotest.test_case "collapse chains" `Quick test_collapse_buffers;
          Alcotest.test_case "fanout stems kept" `Quick
            test_collapse_keeps_fanout_stems;
          Alcotest.test_case "gate-input collapsing" `Quick
            test_collapse_gate_inputs;
          Alcotest.test_case "gate-input equivalence" `Quick
            test_collapse_gate_inputs_equivalence;
        ] );
      ( "sim",
        [
          Alcotest.test_case "combinational" `Quick test_sim_combinational;
          Alcotest.test_case "fault injection" `Quick test_sim_fault_injection;
          Alcotest.test_case "deterministic" `Quick test_sim_deterministic;
        ] );
      ( "podem",
        [
          Alcotest.test_case "detects all (and+dff)" `Quick
            test_podem_detects_all_and_dff;
          Alcotest.test_case "tests replay" `Quick test_podem_tests_replay;
          Alcotest.test_case "frame depth" `Quick test_podem_needs_frames_for_depth;
        ] );
      ( "pipeline",
        [
          Alcotest.test_case "full run" `Quick test_atpg_full_run;
          Alcotest.test_case "deterministic" `Quick test_atpg_deterministic;
          Alcotest.test_case "seeds" `Quick test_atpg_seed_sensitivity;
          Alcotest.test_case "budget monotone" `Quick test_atpg_more_random_helps;
          Alcotest.test_case "lane masking" `Quick test_atpg_lane_masking;
          Alcotest.test_case "table cells golden" `Quick test_table_cells_golden;
        ] );
      ( "bist",
        [
          Alcotest.test_case "runs" `Quick test_bist_runs;
          Alcotest.test_case "deterministic" `Quick test_bist_deterministic;
          Alcotest.test_case "session length" `Quick test_bist_longer_session_helps;
        ] );
    ]
