module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Schedule = Hlts_sched.Schedule
module Binding = Hlts_alloc.Binding

type port = Datapath.port =
  | P_left
  | P_right

type node = Datapath.node =
  | Port_in of string
  | Port_out of string
  | Cond_out of int
  | Const of int
  | Reg of Binding.register
  | Fu of Binding.fu

type arc = {
  a_src : int;
  a_dst : int;
  a_port : port option;
  a_guards : int list;
}

(* In-arc and out-arc lists by node id, in arc-list order; node kinds
   and reg/fu lookups are the data-path view's own tables. *)
type index = {
  ins : arc list array;
  outs : arc list array;
}

type t = {
  dfg : Dfg.t;
  schedule : Schedule.t;
  binding : Binding.t;
  datapath : Datapath.t;
  nodes : (int * node) list;
  arcs : arc list;
  index : index;
}

(* The guards of each view arc, read off the schedule. *)
let assemble dfg schedule binding datapath =
  let length = Schedule.length schedule in
  let guards = function
    | Datapath.Load name ->
      [ (Hlts_alloc.Lifetime.interval_of dfg schedule (Dfg.V_input name))
          .Hlts_alloc.Lifetime.birth
        - 1 ]
    | Datapath.Exec op -> [ Schedule.step schedule op ]
    | Datapath.Emit -> [ length + 1 ]
    | Datapath.Always -> List.init (length + 2) Fun.id
  in
  let arcs =
    List.map
      (fun a ->
        {
          a_src = a.Datapath.a_src;
          a_dst = a.Datapath.a_dst;
          a_port = a.Datapath.a_port;
          a_guards =
            List.sort_uniq compare (List.concat_map guards a.Datapath.a_transfers);
        })
      (Datapath.arcs datapath)
  in
  let n = Datapath.size datapath in
  let ins = Array.make n [] and outs = Array.make n [] in
  List.iter
    (fun a ->
      ins.(a.a_dst) <- a :: ins.(a.a_dst);
      outs.(a.a_src) <- a :: outs.(a.a_src))
    (List.rev arcs);
  {
    dfg;
    schedule;
    binding;
    datapath;
    nodes = List.init n (fun id -> (id, Datapath.node datapath id));
    arcs;
    index = { ins; outs };
  }

let build dfg schedule binding =
  Hlts_obs.span ~cat:"etpn" "etpn.build" @@ fun _ ->
  if not (Schedule.respects dfg schedule) then
    Error "schedule violates data dependencies"
  else
    match Binding.validate dfg schedule binding with
    | Error _ as e -> e
    | Ok () -> Ok (assemble dfg schedule binding (Datapath.build dfg binding))

let build_exn dfg schedule binding =
  match build dfg schedule binding with
  | Ok t -> t
  | Error msg -> invalid_arg ("Etpn.build: " ^ msg)

let datapath t = t.datapath
let node t id = Datapath.node t.datapath id
let node_id_of_reg t reg_id = Datapath.node_id_of_reg t.datapath reg_id
let node_id_of_fu t fu_id = Datapath.node_id_of_fu t.datapath fu_id

let arcs_at tbl id =
  if id < 0 || id >= Array.length tbl then [] else tbl.(id)

let in_arcs t id = arcs_at t.index.ins id
let out_arcs t id = arcs_at t.index.outs id

type stats = {
  n_registers : int;
  n_fus : int;
  n_mux_units : int;
  n_mux_slices : int;
  n_self_loops : int;
  n_arcs : int;
}

let stats t =
  (* A mux sits on every destination (node, port) with several sources. *)
  let destinations =
    Hlts_util.Listx.group_by (fun a -> (a.a_dst, a.a_port)) t.arcs
  in
  let fanins = List.map (fun (_, arcs) -> List.length arcs) destinations in
  let n_mux_units = List.length (List.filter (fun f -> f > 1) fanins) in
  let n_mux_slices =
    List.fold_left (fun acc f -> acc + max 0 (f - 1)) 0 fanins
  in
  let is_reg id = match node t id with Reg _ -> true | _ -> false in
  let is_fu id = match node t id with Fu _ -> true | _ -> false in
  let self_loop (fu_id, _) =
    if not (is_fu fu_id) then 0
    else begin
      let sources =
        List.filter_map
          (fun a -> if is_reg a.a_src then Some a.a_src else None)
          (in_arcs t fu_id)
      in
      let sinks =
        List.filter_map
          (fun a -> if is_reg a.a_dst then Some a.a_dst else None)
          (out_arcs t fu_id)
      in
      List.length
        (List.sort_uniq compare
           (List.filter (fun r -> List.mem r sinks) sources))
    end
  in
  {
    n_registers = List.length t.binding.Binding.registers;
    n_fus = List.length t.binding.Binding.fus;
    n_mux_units;
    n_mux_slices;
    n_self_loops =
      List.fold_left (fun acc n -> acc + self_loop n) 0 t.nodes;
    n_arcs = List.length t.arcs;
  }

let interconnect t = Datapath.interconnect t.datapath

let add_observation_point t ~reg_id =
  assemble t.dfg t.schedule t.binding
    (Datapath.add_observation_point t.datapath ~reg_id)

let node_label t id =
  match node t id with
  | Port_in s -> Printf.sprintf "in:%s" s
  | Port_out s -> Printf.sprintf "out:%s" s
  | Cond_out op -> Printf.sprintf "cond:N%d" op
  | Const c -> Printf.sprintf "#%d" c
  | Reg r ->
    Printf.sprintf "R%d(%s)" r.Binding.reg_id
      (String.concat ","
         (List.map (Dfg.value_name t.dfg) r.Binding.reg_values))
  | Fu fu ->
    Printf.sprintf "%s%d(%s)"
      (Op.class_name fu.Binding.fu_class)
      fu.Binding.fu_id
      (String.concat "," (List.map (Printf.sprintf "N%d") fu.Binding.fu_ops))

let to_dot t =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "digraph etpn {\n  rankdir=LR;\n";
  List.iter
    (fun (id, n) ->
      let shape =
        match n with
        | Reg _ -> "box"
        | Fu _ -> "ellipse"
        | Const _ -> "plaintext"
        | Port_in _ | Port_out _ | Cond_out _ -> "diamond"
      in
      Buffer.add_string buf
        (Printf.sprintf "  n%d [label=\"%s\", shape=%s];\n" id (node_label t id)
           shape))
    t.nodes;
  List.iter
    (fun a ->
      let port =
        match a.a_port with
        | Some P_left -> "L" | Some P_right -> "R" | None -> ""
      in
      let guards = String.concat "," (List.map string_of_int a.a_guards) in
      Buffer.add_string buf
        (Printf.sprintf "  n%d -> n%d [label=\"%s s%s\"];\n" a.a_src a.a_dst
           port guards))
    t.arcs;
  Buffer.add_string buf "}\n";
  Buffer.contents buf
