module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Binding = Hlts_alloc.Binding
module Itbl = Hlts_util.Itbl

type port =
  | P_left
  | P_right

type node =
  | Port_in of string
  | Port_out of string
  | Cond_out of int
  | Const of int
  | Reg of Binding.register
  | Fu of Binding.fu

type transfer =
  | Load of string
  | Exec of int
  | Emit
  | Always

type arc = {
  a_src : int;
  a_dst : int;
  a_port : port option;
  a_transfers : transfer list;
}

(* Per-node lookup tables over [nodes] and [arcs]: every estimator of a
   merge attempt queries nodes and arcs by id, and node ids are dense,
   so plain arrays index them. *)
type t = {
  nodes : node array;
  arcs : arc list;
  ins : arc list array;  (* by destination, in arc-list order *)
  outs : arc list array;  (* by source, in arc-list order *)
  reg_nodes : int array;  (* reg id -> node id, -1 where absent *)
  fu_nodes : int array;  (* fu id -> node id, -1 where absent *)
}

let make nodes arcs =
  let n = Array.length nodes in
  let ins = Array.make n [] and outs = Array.make n [] in
  List.iter
    (fun a ->
      ins.(a.a_dst) <- a :: ins.(a.a_dst);
      outs.(a.a_src) <- a :: outs.(a.a_src))
    (List.rev arcs);
  (* reg/fu id -> node id of the first node carrying it, so a malformed
     binding with a repeated id resolves as a list search would *)
  let first_node key =
    let ids = Array.map key nodes in
    let tbl = Array.make (1 + Array.fold_left max (-1) ids) (-1) in
    for node = n - 1 downto 0 do
      if ids.(node) >= 0 then tbl.(ids.(node)) <- node
    done;
    tbl
  in
  {
    nodes;
    arcs;
    ins;
    outs;
    reg_nodes = first_node (function Reg r -> r.Binding.reg_id | _ -> -1);
    fu_nodes = first_node (function Fu fu -> fu.Binding.fu_id | _ -> -1);
  }

let build dfg binding =
  Hlts_obs.span ~cat:"etpn" "etpn.datapath" @@ fun _ ->
  let next = ref 0 in
  let nodes = ref [] in
  let fresh n =
    let id = !next in
    incr next;
    nodes := n :: !nodes;
    id
  in
  (* value -> register node and op -> unit node by DFG position, first
     holder wins *)
  let holders n holders keys pos node =
    let tbl = Array.make n (-1) in
    List.iter
      (fun h ->
        let id = fresh (node h) in
        List.iter
          (fun k ->
            let p = pos k in
            if p >= 0 && tbl.(p) < 0 then tbl.(p) <- id)
          (keys h))
      holders;
    tbl
  in
  let reg_node =
    holders
      (List.length (Dfg.value_rows dfg))
      binding.Binding.registers
      (fun r -> r.Binding.reg_values)
      (Dfg.value_pos dfg)
      (fun r -> Reg r)
  in
  let fu_node =
    holders (List.length dfg.Dfg.ops) binding.Binding.fus
      (fun fu -> fu.Binding.fu_ops)
      (Dfg.op_pos dfg)
      (fun fu -> Fu fu)
  in
  let const_node = Itbl.create 8 in
  let const_id c =
    match Itbl.find_opt const_node c with
    | Some id -> id
    | None ->
      let id = fresh (Const c) in
      Itbl.replace const_node c id;
      id
  in
  let reg_of_value v =
    let p = Dfg.value_pos dfg v in
    if p < 0 || reg_node.(p) < 0 then raise Not_found else reg_node.(p)
  in
  (* Raw transfers, newest first; grouped into arcs afterwards. *)
  let raw = ref [] in
  let arc src dst port why = raw := (src, dst, port, why) :: !raw in
  List.iter
    (fun name ->
      let p = fresh (Port_in name) in
      arc p (reg_of_value (Dfg.V_input name)) None (Load name))
    dfg.Dfg.inputs;
  let operand_src = function
    | Dfg.Const c -> const_id c
    | Dfg.Input name -> reg_of_value (Dfg.V_input name)
    | Dfg.Op id -> reg_of_value (Dfg.V_op id)
  in
  List.iteri
    (fun pos o ->
      let fu = if fu_node.(pos) < 0 then raise Not_found else fu_node.(pos) in
      let a, b = o.Dfg.args in
      let why = Exec o.Dfg.id in
      arc (operand_src a) fu (Some P_left) why;
      arc (operand_src b) fu (Some P_right) why;
      if Op.is_comparison o.Dfg.kind then arc fu (fresh (Cond_out o.Dfg.id)) None why
      else arc fu (reg_of_value (Dfg.V_op o.Dfg.id)) None why)
    dfg.Dfg.ops;
  List.iter
    (fun name ->
      let v = Option.get (Dfg.value_of_name dfg name) in
      let p = fresh (Port_out name) in
      arc (reg_of_value v) p None Emit)
    dfg.Dfg.outputs;
  (* One arc per distinct (src, dst, port), in the order the keys first
     appear in [raw] ([Listx.group_by]'s order), keyed by one int. *)
  let groups = Itbl.create 128 in
  let order = ref [] in
  List.iter
    (fun (src, dst, port, why) ->
      let p = match port with None -> 0 | Some P_left -> 1 | Some P_right -> 2 in
      let key = (((src lsl 30) lor dst) lsl 2) lor p in
      match Itbl.find_opt groups key with
      | Some whys -> whys := why :: !whys
      | None ->
        let whys = ref [ why ] in
        Itbl.add groups key whys;
        order := (src, dst, port, whys) :: !order)
    !raw;
  let arcs =
    List.rev_map
      (fun (a_src, a_dst, a_port, whys) ->
        { a_src; a_dst; a_port; a_transfers = !whys })
      !order
  in
  make (Array.of_list (List.rev !nodes)) arcs

let size t = Array.length t.nodes
let arcs t = t.arcs

let by_id tbl id =
  if id < 0 || id >= Array.length tbl then raise Not_found else tbl.(id)

let node t id = by_id t.nodes id

let node_of tbl id =
  let node = by_id tbl id in
  if node < 0 then raise Not_found else node

let node_id_of_reg t reg_id = node_of t.reg_nodes reg_id
let node_id_of_fu t fu_id = node_of t.fu_nodes fu_id

let arcs_at tbl id = try by_id tbl id with Not_found -> []
let in_arcs t id = arcs_at t.ins id
let out_arcs t id = arcs_at t.outs id

let add_observation_point t ~reg_id =
  let src = node_id_of_reg t reg_id in
  let port = Port_out (Printf.sprintf "tp_r%d" reg_id) in
  let tap =
    { a_src = src; a_dst = size t; a_port = None; a_transfers = [ Always ] }
  in
  make (Array.append t.nodes [| port |]) (t.arcs @ [ tap ])
