(* Explore the RT-level testability analysis on the Ex benchmark:
   CC/SC/CO/SO per node, the balance scores that drive Algorithm 1's
   candidate selection, and how the measures change across a merger.

   Run with: dune exec examples/testability_explorer.exe *)

module Flows = Hlts_synth.Flows
module State = Hlts_synth.State
module T = Hlts_testability.Testability
module Etpn = Hlts_etpn.Etpn
module Candidates = Hlts_synth.Candidates

let print_measures etpn t =
  Format.printf "  %-26s %s@." "node" "CC     SC    CO     SO";
  List.iter
    (fun (id, node) ->
      let label =
        match node with
        | Etpn.Reg r ->
          Printf.sprintf "R%d" r.Hlts_alloc.Binding.reg_id
        | Etpn.Fu fu ->
          Printf.sprintf "%s%d"
            (Hlts_dfg.Op.class_name fu.Hlts_alloc.Binding.fu_class)
            fu.Hlts_alloc.Binding.fu_id
        | Etpn.Port_in s -> "in:" ^ s
        | Etpn.Port_out s -> "out:" ^ s
        | Etpn.Cond_out op -> Printf.sprintf "cond:N%d" op
        | Etpn.Const c -> Printf.sprintf "#%d" c
      in
      let m = T.node_measures t id in
      Format.printf "  %-26s %a@." label T.pp_measures m)
    etpn.Etpn.nodes

let () =
  let design = Hlts_dfg.Benchmarks.ex in

  (* default allocation: every operation and value on its own node *)
  let state = State.init design in
  let etpn = State.etpn state in
  let t = State.analysis state in
  Format.printf "=== default allocation (before any merger) ===@.";
  print_measures etpn t;
  Format.printf "sequential-depth metric: %.1f@.@." (T.seq_depth_total t);

  (* the balance-ranked candidate pairs Algorithm 1 sees first *)
  Format.printf "top balance-scored merger candidates:@.";
  List.iteri
    (fun i (pair, score) ->
      if i < 8 then
        let label =
          match pair with
          | Candidates.Units (a, b) -> Printf.sprintf "units %d + %d" a b
          | Candidates.Registers (a, b) ->
            Printf.sprintf "registers %d + %d" a b
        in
        Format.printf "  %-20s score %+.3f@." label score)
    (Candidates.all_scored state t Candidates.Balance);
  Format.printf "@.";

  (* after full synthesis *)
  let ours = Flows.synthesize Flows.Ours design in
  let t' = State.analysis ours.Flows.state in
  Format.printf "=== after Algorithm 1 ===@.";
  print_measures ours.Flows.etpn t';
  Format.printf "sequential-depth metric: %.1f@." (T.seq_depth_total t');
  Format.printf "testability cost: %.2f -> %.2f@." (T.testability_cost t)
    (T.testability_cost t')
