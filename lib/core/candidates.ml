module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Binding = Hlts_alloc.Binding
module Datapath = Hlts_etpn.Datapath
module Testability = Hlts_testability.Testability

type pair =
  | Units of int * int
  | Registers of int * int

type strategy =
  | Balance
  | Connectivity

module IntSet = Set.Make (Int)

(* Per-node neighbourhoods of the data path, computed once per scoring
   pass: [sources] = distinct arc sources feeding the node, [sinks] =
   distinct arc destinations it feeds. The pool scoring below probes
   these for every candidate pair (O(pairs) set intersections) — the
   former per-pair list rebuilds and [List.mem] probes made the pool
   scan cubic in the node count. *)
type neighbourhoods = {
  sources : IntSet.t array;  (* by node id *)
  sinks : IntSet.t array;
}

let neighbourhoods dp =
  let n = Datapath.size dp in
  let srcs = Array.make n IntSet.empty and dsts = Array.make n IntSet.empty in
  List.iter
    (fun arc ->
      let s = arc.Datapath.a_src and d = arc.Datapath.a_dst in
      srcs.(d) <- IntSet.add s srcs.(d);
      dsts.(s) <- IntSet.add d dsts.(s))
    (Datapath.arcs dp);
  { sources = srcs; sinks = dsts }

(* |x ∩ y|, without building the intersection *)
let inter x y = IntSet.fold (fun e n -> if IntSet.mem e y then n + 1 else n) x 0

(* Self-loops a merger would create: a register feeding one partner and
   fed by the other becomes a register-unit-register loop (for unit
   pairs), and symmetrically for register pairs through a shared unit.
   §3 of the paper asks for "as few loops as possible". *)
let new_self_loops nb a b =
  inter nb.sources.(a) nb.sinks.(b) + inter nb.sources.(b) nb.sinks.(a)

let closeness nb a b =
  let direct =
    if IntSet.mem b nb.sinks.(a) || IntSet.mem a nb.sinks.(b) then 1 else 0
  in
  float_of_int
    (inter nb.sources.(a) nb.sources.(b) + inter nb.sinks.(a) nb.sinks.(b) + direct)

let all_scored state t strategy =
  let dp = Testability.datapath t in
  let nb = neighbourhoods dp in
  let binding = state.State.binding in
  let score a b =
    match strategy with
    | Balance ->
      (* balance principle, discounted by the loops the merger creates *)
      Testability.balance_score t a b
      -. (0.5 *. float_of_int (new_self_loops nb a b))
    | Connectivity -> closeness nb a b
  in
  let unit_pairs =
    let with_kinds fu =
      ( fu,
        List.map
          (fun id -> (Dfg.op_by_id state.State.dfg id).Dfg.kind)
          fu.Binding.fu_ops )
    in
    List.filter_map
      (fun ((f, kf), (g, kg)) ->
        if Op.shared_class (kf @ kg) <> None then
          let na = Datapath.node_id_of_fu dp f.Binding.fu_id in
          let nb = Datapath.node_id_of_fu dp g.Binding.fu_id in
          Some (Units (f.Binding.fu_id, g.Binding.fu_id), score na nb)
        else None)
      (Hlts_util.Listx.pairs (List.map with_kinds binding.Binding.fus))
  in
  let register_pairs =
    List.map
      (fun (r, s) ->
        let na = Datapath.node_id_of_reg dp r.Binding.reg_id in
        let nb = Datapath.node_id_of_reg dp s.Binding.reg_id in
        (Registers (r.Binding.reg_id, s.Binding.reg_id), score na nb))
      (Hlts_util.Listx.pairs binding.Binding.registers)
  in
  List.sort
    (fun (_, s1) (_, s2) -> Float.compare s2 s1)
    (unit_pairs @ register_pairs)

let select state t strategy ~k =
  List.map fst (Hlts_util.Listx.take k (all_scored state t strategy))
