(* PODEM's cone-limited search against its full-sweep reference
   ([`Full]): random sequential netlists x random faults, and every
   collapsed fault of a real data path, must agree bit-for-bit on the
   verdict, the generated test and the effort counters. One workspace
   serves a whole fault list, as in an ATPG run, and reusing it must
   give what a fresh workspace per fault gives. *)

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

(* --- Podem `Cone vs `Full ------------------------------------------------ *)

let prop_podem_matches_oracle =
  QCheck.Test.make ~name:"Podem `Cone = Podem `Full" ~count:100
    QCheck.(int_bound 1_000_000)
    (fun seed ->
      let st = Random.State.make [| seed |] in
      let c = random_netlist st in
      let ws = Podem.workspace (Sim.compile c) in
      List.for_all
        (fun fault ->
          let v1, s1 =
            Podem.generate ~engine:`Cone ws ~max_frames:3 ~max_backtracks:10
              fault
          in
          let v2, s2 =
            Podem.generate ~engine:`Full ws ~max_frames:3 ~max_backtracks:10
              fault
          in
          if not (v1 = v2 && s1 = s2) then
            QCheck.Test.fail_reportf "seed %d %s: engines disagree" seed
              (F.to_string fault);
          true)
        (List.init 3 (fun _ -> random_fault st c)))

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
  let ws = Podem.workspace (Sim.compile c) in
  List.iter
    (fun fault ->
      let generate engine =
        Podem.generate ~engine ws ~max_frames:5 ~max_backtracks:20 fault
      in
      if generate `Cone <> generate `Full then
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
