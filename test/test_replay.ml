(* PODEM's cone-limited search against the same search with full-sweep
   steps ([Oracle.podem_full_steps]): random sequential netlists x
   random faults, and every collapsed fault of a real data path, must
   agree bit-for-bit on the verdict, the generated test and the effort
   counters. One workspace serves a whole fault list, as in an ATPG run,
   and reusing it must give what a fresh workspace per fault gives.
   Every test PODEM reports on a small random netlist must detect its
   fault from every power-up state. *)

module N = Hlts_netlist.Netlist
module B = N.Builder
module F = Hlts_fault.Fault
module Sim = Hlts_sim.Sim
module Podem = Hlts_atpg.Podem
module Atpg = Hlts_atpg.Atpg

(* A random sequential netlist: a few PI buses, a soup of random gates
   over everything reachable, and DFF feedback loops closed through
   placeholder nets ([fresh] used as inputs first, [drive]n from a DFF
   Q at the end). *)
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

let random_fault st c =
  let faults = F.universe c in
  List.nth faults (Random.State.int st (List.length faults))

(* --- cone search vs full-sweep reference --------------------------------- *)

let reference sim ws ~max_frames ~max_backtracks fault =
  Podem.Test_hook.generate (Oracle.podem_full_steps sim) ws ~max_frames
    ~max_backtracks fault

(* The name keeps the engines' former names: [`Cone] is the product
   search, [`Full] the reference. *)
let prop_podem_matches_oracle =
  QCheck.Test.make ~name:"Podem `Cone = Podem `Full" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let ws = Podem.workspace sim in
      List.for_all
        (fun fault ->
          let v1, s1 =
            Podem.generate ws ~max_frames:3 ~max_backtracks:10 fault
          in
          let v2, s2 =
            reference sim ws ~max_frames:3 ~max_backtracks:10 fault
          in
          if not (v1 = v2 && s1 = s2) then
            QCheck.Test.fail_reportf "seed %d %s: engines disagree" seed
              (F.to_string fault);
          true)
        (List.init 3 (fun _ -> random_fault st c)))

(* --- kept search state against a rescan ----------------------------------- *)

(* After every sweep of the product search, the state the sweeps keep
   against a from-scratch scan of the same planes: every gate's
   D-frontier bit in every frame, the detection count and the
   activation count. The first disagreement, if any. *)
let kept_state_disagreement sim ws ~max_frames ~max_backtracks fault =
  let n_gates = (Sim.ops sim).Sim.n_gates in
  let first = ref None in
  let check (st : Podem.Test_hook.state) =
    let v = st.Podem.Test_hook.planes in
    let fail what = if !first = None then first := Some what in
    for f = 0 to v.Podem.Test_hook.frames - 1 do
      for gi = 0 to n_gates - 1 do
        if st.Podem.Test_hook.frontier f gi <> Oracle.podem_frontier sim v f gi
        then fail (Printf.sprintf "frontier bit of gate %d in frame %d" gi f)
      done
    done;
    if st.Podem.Test_hook.detections <> Oracle.podem_detections sim v then
      fail "detection count";
    if st.Podem.Test_hook.activations <> Oracle.podem_activations v then
      fail "activation count"
  in
  ignore (Podem.Test_hook.observe check ws ~max_frames ~max_backtracks fault);
  !first

let prop_kept_state_matches_scan =
  QCheck.Test.make ~name:"kept PODEM state = rescan"
    ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let sim = Sim.compile c in
      let ws = Podem.workspace sim in
      List.for_all
        (fun fault ->
          match
            kept_state_disagreement sim ws ~max_frames:3 ~max_backtracks:10
              fault
          with
          | None -> true
          | Some what ->
            QCheck.Test.fail_reportf "seed %d %s: %s differs from the rescan"
              seed (F.to_string fault) what)
        (F.universe c))

(* --- Detected tests against binary replay -------------------------------- *)

(* The power-up state word of flip-flop [d] when lane [j] holds state
   [j]: bit [j] is bit [d] of [j]. *)
let power_up_word ~states d =
  let w = ref 0L in
  for j = 0 to states - 1 do
    if (j lsr d) land 1 = 1 then w := Int64.logor !w (Int64.shift_left 1L j)
  done;
  !w

(* Does [test] detect [fault] in binary simulation from every power-up
   state? The 2^dffs states run side by side, one per lane, in a good
   and a faulty machine; unassigned PIs read 0, as in [Atpg.pack_tests].
   Every lane must see a PO differ in some frame. *)
let detects_from_every_state sim (test : Podem.test) fault =
  let n_dffs = Array.length (Sim.circuit sim).N.dffs in
  assert (n_dffs <= 6);
  let states = 1 lsl n_dffs in
  let all = if states = 64 then -1L else Int64.pred (Int64.shift_left 1L states) in
  let good = Sim.machine sim and bad = Sim.machine sim in
  for d = 0 to n_dffs - 1 do
    let w = power_up_word ~states d in
    good.Sim.state.(d) <- w;
    bad.Sim.state.(d) <- w
  done;
  let seen = ref 0L in
  Array.iter
    (fun assigned ->
      Array.iter
        (fun net ->
          let w = if List.assoc_opt net assigned = Some true then -1L else 0L in
          good.Sim.values.(net) <- w;
          bad.Sim.values.(net) <- w)
        (Sim.pi_nets sim);
      Sim.eval sim good;
      Sim.eval ~fault sim bad;
      seen := Int64.logor !seen (Sim.po_diff sim good bad);
      Sim.step sim good;
      Sim.step sim bad)
    test.Podem.t_frames;
  Int64.logand !seen all = all

(* Every fault of 300 small random netlists (at most 6 PI bits and 2
   flip-flops, 3 frames): each [Detected] test must detect from every
   power-up state. *)
let test_detected_every_state () =
  let replayed = ref 0 in
  for seed = 0 to 299 do
    let c = random_netlist (Random.State.make [| seed |]) in
    let sim = Sim.compile c in
    let ws = Podem.workspace sim in
    List.iter
      (fun fault ->
        match Podem.generate ws ~max_frames:3 ~max_backtracks:1000 fault with
        | Podem.Detected test, _ ->
          incr replayed;
          if not (detects_from_every_state sim test fault) then
            Alcotest.failf "seed %d %s: the test misses some power-up state"
              seed (F.to_string fault)
        | (Podem.No_test_in_frames | Podem.Aborted), _ -> ())
      (F.universe c)
  done;
  Alcotest.(check bool) "some Detected verdicts replayed" true (!replayed > 0)

(* --- real data path ------------------------------------------------------- *)

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

let test_podem_datapath () =
  let c = datapath 4 in
  let sim = Sim.compile c in
  let ws = Podem.workspace sim in
  List.iter
    (fun fault ->
      let cone = Podem.generate ws ~max_frames:5 ~max_backtracks:20 fault in
      if cone <> reference sim ws ~max_frames:5 ~max_backtracks:20 fault then
        Alcotest.failf "%s: engines disagree" (F.to_string fault))
    (F.collapsed_universe c)

(* --- workspace reuse ------------------------------------------------------ *)

let shuffle st l =
  List.map (fun f -> (Random.State.bits st, f)) l
  |> List.sort compare |> List.map snd

(* One workspace carried through [faults] in order, [max_frames] rising
   1 -> 5 along the list so its planes grow mid-list, against a fresh
   workspace per fault: the first fault they disagree on, if any. *)
let reuse_disagreement sim ~max_backtracks faults =
  let ws = Podem.workspace sim in
  let len = List.length faults in
  List.mapi (fun i f -> (i, f)) faults
  |> List.find_opt (fun (i, fault) ->
         let max_frames = 1 + (i * 5 / len) in
         let run ws = Podem.generate ws ~max_frames ~max_backtracks fault in
         let reused = run ws in
         reused <> run (Podem.workspace sim))
  |> Option.map (fun (_, fault) -> F.to_string fault)

let prop_workspace_reuse =
  QCheck.Test.make ~name:"reused workspace = fresh workspace" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      match
        reuse_disagreement (Sim.compile c) ~max_backtracks:10
          (shuffle st (F.universe c))
      with
      | None -> true
      | Some fault ->
        QCheck.Test.fail_reportf "seed %d %s: reuse changes the result" seed
          fault)

let test_workspace_reuse circuit () =
  let c = circuit () in
  match
    reuse_disagreement (Sim.compile c) ~max_backtracks:20
      (shuffle (Random.State.make [| 7 |]) (F.collapsed_universe c))
  with
  | None -> ()
  | Some fault -> Alcotest.failf "%s: reuse changes the result" fault

let test_atpg_digest_stable () =
  let c = datapath 4 in
  let r1 = Atpg.run c and r2 = Atpg.run c in
  Alcotest.(check string) "same digest" r1.Atpg.detect_digest
    r2.Atpg.detect_digest;
  Alcotest.(check bool) "evals positive" true (r1.Atpg.evals > 0)

let () =
  Alcotest.run "hlts_replay"
    [
      ( "podem",
        [
          QCheck_alcotest.to_alcotest prop_podem_matches_oracle;
          Alcotest.test_case "toy datapath@4" `Quick test_podem_datapath;
          Alcotest.test_case "Detected holds from every power-up state" `Quick
            test_detected_every_state;
          QCheck_alcotest.to_alcotest prop_kept_state_matches_scan;
        ] );
      ( "workspace",
        [
          QCheck_alcotest.to_alcotest prop_workspace_reuse;
          Alcotest.test_case "reuse toy datapath@4" `Quick
            (test_workspace_reuse (fun () -> datapath 4));
          Alcotest.test_case "reuse ex@4" `Quick
            (test_workspace_reuse (fun () -> ex_datapath 4));
        ] );
      ( "atpg",
        [ Alcotest.test_case "digest stable" `Quick test_atpg_digest_stable ] );
    ]
