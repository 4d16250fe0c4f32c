(* PODEM's cone-limited search against its full-sweep reference
   ([`Full]): random sequential netlists x random faults, and every
   collapsed fault of a real data path, must agree bit-for-bit on the
   verdict, the generated test and the effort counters. *)

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
      let sim = Sim.compile c in
      List.for_all
        (fun fault ->
          let v1, s1 =
            Podem.generate ~engine:`Cone sim ~max_frames:3 ~max_backtracks:10
              fault
          in
          let v2, s2 =
            Podem.generate ~engine:`Full sim ~max_frames:3 ~max_backtracks:10
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

let test_podem_datapath () =
  let c = datapath 4 in
  let sim = Sim.compile c in
  List.iter
    (fun fault ->
      let generate engine =
        Podem.generate ~engine sim ~max_frames:5 ~max_backtracks:20 fault
      in
      if generate `Cone <> generate `Full then
        Alcotest.failf "%s: engines disagree" (F.to_string fault))
    (F.collapsed_universe c)

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
      ( "atpg",
        [ Alcotest.test_case "digest stable" `Quick test_atpg_digest_stable ] );
    ]
