module Flows = Hlts_synth.Flows
module Synth = Hlts_synth.Synth
module B = Hlts_dfg.Benchmarks

let approaches = Flows.[ Camad; Approach1; Approach2; Ours ]

let widths = [ 4; 8; 16 ]

(* Every table-like experiment goes through the one {!Engine}
   orchestration path — the same one [hlts serve] answers from — so a
   row computed here, by the CLI, by the bench harness or by the daemon
   is byte-identical. Callers without an engine get a fresh memory-only
   one: behavior is then exactly the historical single-shot run. *)
let engine_for ?engine ?jobs () =
  match engine with
  | Some e -> e
  | None -> Engine.create ?jobs ()

let spec_exn ?params ?atpg ~bench ~dfg ~approach ~bits () =
  match Engine.spec ?params ?atpg ~dfg ~bench ~approach ~bits () with
  | Ok s -> s
  | Error e -> invalid_arg e

let rows_exn (r : Engine.result) =
  match r.Engine.response with
  | Engine.Rows rows -> rows
  | _ -> invalid_arg "sweep did not return rows"

let row_exn (r : Engine.result) =
  match r.Engine.response with
  | Engine.Row row -> row
  | _ -> invalid_arg "request did not return a row"

(* One synthesis per approach with the baseline parameters (the paper's
   per-width triples were chosen to reach the same allocation at every
   width, so one standard structure per approach is the faithful
   reading); the structure is then measured at 4, 8 and 16 bits.

   The engine shares the synthesized outcome across the three widths of
   an approach (its outcome tier is keyed without the width) and fans
   the (approach, width) ATPG cells out over the worker pool, which
   with [jobs <= 1] is exactly [List.map] — the serial path — and
   otherwise merges in the same cell order, so the rows are identical
   for every job count. *)
let table_rows ?engine ?atpg ?jobs ?(bench = "") dfg =
  let eng = engine_for ?engine ?jobs () in
  let params = { Synth.default_params with Synth.bits = 8 } in
  let cells =
    List.concat_map
      (fun approach ->
        List.map
          (fun bits ->
            spec_exn ~params ?atpg ~bench ~dfg ~approach ~bits ())
          widths)
      approaches
  in
  rows_exn (Engine.run eng (Engine.Sweep cells))

let table1 ?engine ?atpg ?jobs () =
  table_rows ?engine ?atpg ?jobs ~bench:"ex" B.ex

let table2 ?engine ?atpg ?jobs () =
  table_rows ?engine ?atpg ?jobs ~bench:"dct" B.dct

let table3 ?engine ?atpg ?jobs () =
  table_rows ?engine ?atpg ?jobs ~bench:"diffeq" B.diffeq

let extra_benches = [ ("ewf", B.ewf); ("paulin", B.paulin); ("tseng", B.tseng) ]

let extra_rows ?engine ?atpg ?jobs () =
  let eng = engine_for ?engine ?jobs () in
  let params = { Synth.default_params with Synth.bits = 8 } in
  let cells =
    List.concat_map
      (fun (bench, dfg) ->
        List.map
          (fun approach ->
            spec_exn ~params ?atpg ~bench ~dfg ~approach ~bits:8 ())
          approaches)
      extra_benches
  in
  let rows = rows_exn (Engine.run eng (Engine.Sweep cells)) in
  (* regroup the flat cell list: one row per approach, benchmark-major *)
  let per = List.length approaches in
  List.mapi
    (fun b (name, _) ->
      (name, List.filteri (fun i _ -> i / per = b) rows))
    extra_benches

let ablation_params ?engine ?atpg () =
  let eng = engine_for ?engine () in
  let triples = [ (1, 2.0, 1.0); (3, 2.0, 1.0); (5, 2.0, 1.0);
                  (3, 10.0, 1.0); (3, 1.0, 10.0) ] in
  List.map
    (fun (k, alpha, beta) ->
      let params =
        { Synth.default_params with Synth.k; alpha; beta; bits = 8 }
      in
      let s =
        spec_exn ~params ?atpg ~bench:"ex" ~dfg:B.ex ~approach:Flows.Ours
          ~bits:8 ()
      in
      ((k, alpha, beta), row_exn (Engine.run eng (Engine.Atpg s))))
    triples

let ablation_balance ?engine ?atpg () =
  let eng = engine_for ?engine () in
  let row approach bench dfg =
    row_exn
      (Engine.run eng
         (Engine.Atpg (spec_exn ?atpg ~bench ~dfg ~approach ~bits:8 ())))
  in
  List.concat_map
    (fun (name, dfg) ->
      [
        (name ^ " balance", row Flows.Ours name dfg);
        (name ^ " connectivity", row Flows.Camad name dfg);
      ])
    [ ("ex", B.ex); ("dct", B.dct); ("diffeq", B.diffeq) ]

let ablation_latency ?engine ?atpg () =
  let eng = engine_for ?engine () in
  List.concat_map
    (fun (name, dfg) ->
      List.map
        (fun factor ->
          let params =
            { Synth.default_params with Synth.bits = 8;
              latency_factor = factor }
          in
          let s =
            spec_exn ~params ?atpg ~bench:name ~dfg ~approach:Flows.Ours
              ~bits:8 ()
          in
          ((name, factor), row_exn (Engine.run eng (Engine.Atpg s))))
        [ 1.0; 1.25; 1.5; 2.0 ])
    [ ("ex", B.ex); ("diffeq", B.diffeq) ]

let scan_comparison ?atpg () =
  let atpg_cfg =
    Option.value ~default:Hlts_atpg.Atpg.default_config atpg
  in
  let params = { Synth.default_params with Synth.bits = 8 } in
  List.map
    (fun (name, dfg) ->
      let o = Eval.outcome ~params Flows.Ours dfg ~bits:8 in
      let base = Eval.evaluate_outcome ?atpg o ~bits:8 in
      let scan =
        Hlts_netlist.Netlist.full_scan
          (Hlts_netlist.Expand.circuit o.Flows.etpn ~bits:8)
      in
      let r = Hlts_atpg.Atpg.run ~config:atpg_cfg scan in
      (name, base, Hlts_atpg.Atpg.coverage_pct r, r.Hlts_atpg.Atpg.effort))
    [ ("ex", B.ex); ("dct", B.dct); ("diffeq", B.diffeq) ]

let bist_comparison ?(seed = 1) () =
  let params = { Synth.default_params with Synth.bits = 8 } in
  let config = { Hlts_atpg.Bist.default_config with Hlts_atpg.Bist.seed } in
  List.map
    (fun (name, dfg) ->
      ( name,
        List.map
          (fun a ->
            let o = Eval.outcome ~params a dfg ~bits:8 in
            let circuit = Hlts_netlist.Expand.circuit o.Flows.etpn ~bits:8 in
            let r = Hlts_atpg.Bist.run ~config circuit in
            (Flows.approach_name a, Hlts_atpg.Bist.coverage_pct r))
          approaches ))
    [ ("ex", B.ex); ("dct", B.dct); ("diffeq", B.diffeq) ]

let test_points ?atpg () =
  let params = { Synth.default_params with Synth.bits = 8 } in
  List.map
    (fun (name, dfg) ->
      let o = Eval.outcome ~params Flows.Camad dfg ~bits:8 in
      let base = Eval.evaluate_outcome ?atpg o ~bits:8 in
      let state = o.Flows.state in
      let taps = Hlts_synth.Test_points.recommend state ~k:2 in
      let etpn = Hlts_synth.Test_points.insert state taps in
      let tapped =
        Eval.evaluate_outcome ?atpg { o with Flows.etpn } ~bits:8
      in
      (* the row's estimates come from the state, which has no taps *)
      let dp = Hlts_etpn.Etpn.datapath etpn in
      let tapped =
        {
          tapped with
          Eval.area_mm2 = Hlts_floorplan.Floorplan.area dp ~bits:8;
          seq_depth =
            Hlts_testability.Testability.(seq_depth_total (analyze dp));
        }
      in
      (name, base, tapped))
    [ ("ex", B.ex); ("dct", B.dct); ("diffeq", B.diffeq) ]
