(* Test-point insertion: when scheduling freedom is exhausted, the same
   testability analysis that drives Algorithm 1 can recommend observation
   points. This example takes the connectivity-driven (CAMAD-style)
   Diffeq design — the hardest-to-test structure in the evaluation — and
   shows what one or two analysis-recommended register taps buy.

   Run with: dune exec examples/test_point_insertion.exe *)

module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module State = Hlts_synth.State
module Test_points = Hlts_synth.Test_points
module T = Hlts_testability.Testability

let coverage etpn =
  let circuit = Hlts_netlist.Expand.circuit etpn ~bits:8 in
  let r = Hlts_atpg.Atpg.run circuit in
  (Hlts_atpg.Atpg.coverage_pct r, r.Hlts_atpg.Atpg.test_cycles)

let () =
  let design = Hlts_dfg.Benchmarks.diffeq in
  let params = { Synth.default_params with Synth.bits = 8 } in
  let o = Flows.synthesize ~params Flows.Camad design in
  let state = o.Flows.state in

  (* where the analysis says observability is weakest *)
  let analysis = State.analysis state in
  Format.printf "register observability of the CAMAD Diffeq design:@.";
  List.iter
    (fun (rid, m) ->
      Format.printf "  R%-2d CO=%.3f SO=%s@." rid m.T.co
        (if m.T.so = infinity then "inf" else Printf.sprintf "%.1f" m.T.so))
    (T.register_measures analysis);

  let recommended = Test_points.recommend state ~k:2 in
  Format.printf "recommended observation points: %s@.@."
    (String.concat ", " (List.map (Printf.sprintf "R%d") recommended));

  let base_cov, base_cycles = coverage (State.etpn state) in
  Format.printf "without test points: %.2f%% coverage, %d test cycles@."
    base_cov base_cycles;
  List.iteri
    (fun i _ ->
      let taps = Hlts_util.Listx.take (i + 1) recommended in
      let cov, cycles = coverage (Test_points.insert state taps) in
      Format.printf "with %d test point%s:   %.2f%% coverage, %d test cycles@."
        (i + 1)
        (if i = 0 then " " else "s")
        cov cycles)
    recommended
