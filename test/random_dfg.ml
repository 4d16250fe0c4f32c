(* Small random DFGs for the index-coherence properties. Unlike
   [Benchmarks.random], these exercise the corners an index must get
   right: ops reading one value through both operands, constants,
   comparisons, sparse op ids, and outputs that are primary inputs. *)

module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Rng = Hlts_util.Rng

let make seed =
  let rng = Rng.create seed in
  let inputs = List.init (1 + Rng.int rng 4) (Printf.sprintf "i%d") in
  let n_ops = 1 + Rng.int rng 20 in
  (* data values readable so far, as operands *)
  let data = ref (List.map (fun i -> Dfg.Input i) inputs) in
  let operand () =
    if Rng.int rng 6 = 0 then Dfg.Const (Rng.int rng 16)
    else Rng.pick rng (Array.of_list !data)
  in
  let ops =
    List.init n_ops (fun k ->
        let id = (3 * k) + 1 in
        let kind =
          Rng.pick rng [| Op.Add; Op.Sub; Op.Mul; Op.Add; Op.Lt; Op.Xor |]
        in
        let a = operand () in
        let b = if Rng.int rng 4 = 0 then a else operand () in
        if not (Op.is_comparison kind) then data := Dfg.Op id :: !data;
        { Dfg.id; kind; args = (a, b); result = Printf.sprintf "v%d" id })
  in
  let names =
    List.filter_map
      (function Dfg.Input i -> Some i | Dfg.Op id -> Some (Printf.sprintf "v%d" id) | Dfg.Const _ -> None)
      !data
  in
  let outputs = List.filter (fun _ -> Rng.int rng 3 = 0) names in
  let outputs = if outputs = [] then [ List.hd names ] else outputs in
  Dfg.validate_exn
    { Dfg.name = Printf.sprintf "rand%d" seed; inputs; ops; outputs }

(* The states along [steps] random merger attempts from the default
   allocation of [d], initial state first: each attempt that succeeds
   is committed, so later states cover shared units, shared registers
   and their multiplexers. *)
let trajectory rng d steps =
  let module State = Hlts_synth.State in
  let module Merge = Hlts_synth.Merge in
  let module Binding = Hlts_alloc.Binding in
  let pick l = List.nth l (Rng.int rng (List.length l)) in
  let rec go s k acc =
    if k = 0 then List.rev (s :: acc)
    else
      let fus = s.State.binding.Binding.fus
      and regs = s.State.binding.Binding.registers in
      let outcome =
        if Rng.bool rng && List.length fus >= 2 then
          Merge.modules s ~bits:8 (pick fus).Binding.fu_id (pick fus).Binding.fu_id
        else if List.length regs >= 2 then
          Merge.registers s ~bits:8 (pick regs).Binding.reg_id
            (pick regs).Binding.reg_id
        else None
      in
      let s' = match outcome with Some o -> o.Merge.state | None -> s in
      go s' (k - 1) (s :: acc)
  in
  go (State.init d) steps []

(* The constraint sets along [k] random [add_arc] calls from
   [Constraints.of_dfg d], base set first. Arcs are drawn between any
   two operations, so some repeat an earlier arc or one the data
   already implies, and some close a cycle (a self-loop among them);
   a cycle-closing draw is kept one time in four, so most sequences
   stay acyclic for a while and some end cyclic. *)
let constraint_sets rng d k =
  let module Constraints = Hlts_sched.Constraints in
  let ids = Array.of_list (List.map (fun o -> o.Dfg.id) d.Dfg.ops) in
  let rec go c added k acc =
    if k = 0 then List.rev acc
    else
      let a, b =
        match added with
        | _ :: _ when Rng.int rng 5 = 0 -> Rng.pick rng (Array.of_list added)
        | _ -> (Rng.pick rng ids, Rng.pick rng ids)
      in
      if Constraints.would_cycle c a b && Rng.int rng 4 <> 0 then
        go c added (k - 1) acc
      else
        let c = Constraints.add_arc c a b in
        go c ((a, b) :: added) (k - 1) (c :: acc)
  in
  let c0 = Constraints.of_dfg d in
  go c0 [] k [ c0 ]
