module Datapath = Hlts_etpn.Datapath
module Binding = Hlts_alloc.Binding
module Op = Hlts_dfg.Op

type measures = {
  cc : float;
  sc : float;
  co : float;
  so : float;
}

type t = {
  datapath : Datapath.t;
  measures : measures array;  (* node_measures, by node id *)
}

(* Combinational transfer factors: how much controllability survives a
   pass through a unit of the given operation. Multiplication is the
   hardest structure to control and observe through; comparisons compress
   n bits to 1. *)
let ctf = function
  | Op.Add | Op.Sub -> 0.95
  | Op.Mul -> 0.65
  | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Eq | Op.Ne -> 0.55
  | Op.And | Op.Or -> 0.80
  | Op.Xor -> 0.95

let otf = function
  | Op.Add | Op.Sub -> 0.95
  | Op.Mul -> 0.60
  | Op.Lt | Op.Gt | Op.Le | Op.Ge | Op.Eq | Op.Ne -> 0.45
  | Op.And | Op.Or -> 0.75
  | Op.Xor -> 0.95

(* A shared unit is as hard to drive values through as its hardest
   operation class. *)
let class_kind = function
  | Op.Fu_adder -> Op.Add
  | Op.Fu_subtractor -> Op.Sub
  | Op.Fu_multiplier -> Op.Mul
  | Op.Fu_comparator -> Op.Lt
  | Op.Fu_logic -> Op.And
  | Op.Fu_alu -> Op.Add

let fu_ctf fu = ctf (class_kind fu.Binding.fu_class)
let fu_otf fu = otf (class_kind fu.Binding.fu_class)

let register_factor = 0.98
let const_cc = 0.15
let cond_co = 0.85
let big = infinity

(* Float-typed [Stdlib.max]/[min] (same definitions), so the folds
   below compare unboxed floats. *)
let fmax (a : float) b = if a >= b then a else b
let fmin (a : float) b = if a <= b then a else b

let analyze dp =
  Hlts_obs.span ~cat:"testability" "testability.analyze" @@ fun sp ->
  let n = Datapath.size dp in
  Hlts_obs.set sp "nodes" (Hlts_obs.Int n);
  Hlts_obs.count "testability.analyses";
  let kinds = Array.init n (Datapath.node dp) in
  (* controllability of a node's output, observability of its content *)
  let out_cc = Array.make n 0.0 and out_sc = Array.make n big in
  let node_co = Array.make n 0.0 and node_so = Array.make n big in
  Array.iteri
    (fun id k ->
      (match k with
      | Datapath.Port_in _ -> out_cc.(id) <- 1.0; out_sc.(id) <- 0.0
      | Datapath.Const _ -> out_cc.(id) <- const_cc; out_sc.(id) <- 0.0
      | Datapath.Port_out _ | Datapath.Cond_out _ | Datapath.Reg _
      | Datapath.Fu _ -> ());
      match k with
      | Datapath.Port_out _ -> node_co.(id) <- 1.0; node_so.(id) <- 0.0
      | Datapath.Cond_out _ -> node_co.(id) <- cond_co; node_so.(id) <- 0.0
      | Datapath.Port_in _ | Datapath.Const _ | Datapath.Reg _
      | Datapath.Fu _ -> ())
    kinds;
  (* in-arc sources by node, all ports and per unit port, in arc order *)
  let sources =
    Array.init n (fun id ->
        List.map (fun a -> a.Datapath.a_src) (Datapath.in_arcs dp id))
  in
  let port_sources p =
    Array.init n (fun id ->
        match kinds.(id) with
        | Datapath.Fu _ ->
          List.filter_map
            (fun a ->
              if a.Datapath.a_port = Some p then Some a.Datapath.a_src else None)
            (Datapath.in_arcs dp id)
        | Datapath.Reg _ | Datapath.Port_in _ | Datapath.Port_out _
        | Datapath.Cond_out _ | Datapath.Const _ -> [])
  in
  let left = port_sources Datapath.P_left in
  let right = port_sources Datapath.P_right in
  let port_cc srcs = List.fold_left (fun acc s -> fmax acc out_cc.(s)) 0.0 srcs in
  let port_sc srcs = List.fold_left (fun acc s -> fmin acc out_sc.(s)) big srcs in

  (* ---- forward relaxation: CC up, SC down, until stable ---- *)
  let forward_once () =
    let changed = ref false in
    let update id cc sc =
      if cc > out_cc.(id) +. 1e-12 then begin
        out_cc.(id) <- cc;
        changed := true
      end;
      if sc < out_sc.(id) -. 1e-12 then begin
        out_sc.(id) <- sc;
        changed := true
      end
    in
    for id = 0 to n - 1 do
      match kinds.(id) with
      | Datapath.Reg _ ->
        let srcs = sources.(id) in
        if srcs <> [] then
          update id (register_factor *. port_cc srcs) (1.0 +. port_sc srcs)
      | Datapath.Fu fu ->
        let left = left.(id) and right = right.(id) in
        if left <> [] && right <> [] then
          update id
            (fu_ctf fu *. fmin (port_cc left) (port_cc right))
            (fmax (port_sc left) (port_sc right))
      | Datapath.Cond_out _ | Datapath.Port_out _ ->
        let srcs = sources.(id) in
        if srcs <> [] then update id (port_cc srcs) (port_sc srcs)
      | Datapath.Port_in _ | Datapath.Const _ -> ()
    done;
    !changed
  in

  (* ---- backward relaxation: CO up, SO down ----
     The observability a node gains through one of its outgoing arcs
     depends on the destination: a register delays by one step; a
     functional-unit input is observable if the unit output is and the
     opposite port can be controlled. *)
  let arc_obs a =
    let dst = a.Datapath.a_dst in
    match kinds.(dst) with
    | Datapath.Port_out _ -> (1.0, 0.0)
    | Datapath.Cond_out _ -> (cond_co, 0.0)
    | Datapath.Reg _ -> (register_factor *. node_co.(dst), 1.0 +. node_so.(dst))
    | Datapath.Fu fu -> (
      let other =
        match a.Datapath.a_port with
        | Some Datapath.P_left -> Some right.(dst)
        | Some Datapath.P_right -> Some left.(dst)
        | None -> None
      in
      match other with
      | None -> (0.0, big)
      | Some other ->
        (* observing through the unit needs the opposite port controlled:
           CO is discounted by its controllability, SO pays its
           sequential set-up cost *)
        let co = fu_otf fu *. node_co.(dst) *. port_cc other in
        (co, node_so.(dst) +. port_sc other))
    | Datapath.Port_in _ | Datapath.Const _ -> (0.0, big)
  in
  let backward_once () =
    let changed = ref false in
    let update id co so =
      if co > node_co.(id) +. 1e-12 then begin
        node_co.(id) <- co;
        changed := true
      end;
      if so < node_so.(id) -. 1e-12 then begin
        node_so.(id) <- so;
        changed := true
      end
    in
    for id = 0 to n - 1 do
      match kinds.(id) with
      | Datapath.Port_out _ | Datapath.Cond_out _ -> ()
      | Datapath.Port_in _ | Datapath.Const _ | Datapath.Reg _ | Datapath.Fu _ ->
        let arcs = Datapath.out_arcs dp id in
        if arcs <> [] then begin
          let co, so =
            List.fold_left
              (fun (co, so) a ->
                let aco, aso = arc_obs a in
                (fmax co aco, fmin so aso))
              (0.0, big) arcs
          in
          update id co so
        end
    done;
    !changed
  in
  let rec run pass budget =
    if budget > 0 && pass () then run pass (budget - 1)
  in
  let rounds = (4 * n) + 16 in
  run forward_once rounds;
  run backward_once rounds;
  (* Node controllability: the best controllability of any input line
     (§3 of the paper); sources' output measures are the line measures.
     Source-less nodes use their own output measures. *)
  let measures =
    Array.init n (fun id ->
        let cc, sc =
          match sources.(id) with
          | [] -> (out_cc.(id), out_sc.(id))
          | srcs -> (port_cc srcs, port_sc srcs)
        in
        { cc; sc; co = node_co.(id); so = node_so.(id) })
  in
  { datapath = dp; measures }

let datapath t = t.datapath

let node_measures t id =
  if id < 0 || id >= Array.length t.measures then raise Not_found
  else t.measures.(id)

let by_kind t keep =
  List.filter_map
    (fun id ->
      match keep (Datapath.node t.datapath id) with
      | Some key -> Some (key, t.measures.(id))
      | None -> None)
    (List.init (Array.length t.measures) Fun.id)

let register_measures t =
  by_kind t (function
    | Datapath.Reg r -> Some r.Binding.reg_id
    | Datapath.Fu _ | Datapath.Port_in _ | Datapath.Port_out _ | Datapath.Cond_out _
    | Datapath.Const _ -> None)

let fu_measures t =
  by_kind t (function
    | Datapath.Fu fu -> Some fu.Binding.fu_id
    | Datapath.Reg _ | Datapath.Port_in _ | Datapath.Port_out _ | Datapath.Cond_out _
    | Datapath.Const _ -> None)

let clamp_seq x n = if x = big || x > float_of_int (4 * n) then float_of_int (4 * n) else x

let seq_depth_total t =
  let regs = register_measures t in
  let n = max 1 (List.length regs) in
  Hlts_util.Listx.sum_by
    (fun (_, m) -> clamp_seq m.sc n +. clamp_seq m.so n)
    regs

let balance_score t u v =
  let mu = node_measures t u and mv = node_measures t v in
  let merged = min (max mu.cc mv.cc) (max mu.co mv.co) in
  let before = (min mu.cc mu.co +. min mv.cc mv.co) /. 2.0 in
  merged -. before

let testability_cost t =
  let all = Array.to_list t.measures in
  let n = max 1 (List.length all) in
  Hlts_util.Listx.sum_by
    (fun m ->
      (1.0 -. m.cc) +. (1.0 -. m.co)
      +. (0.05 *. (clamp_seq m.sc n +. clamp_seq m.so n)))
    all

let pp_measures ppf m =
  Format.fprintf ppf "CC=%.3f SC=%s CO=%.3f SO=%s" m.cc
    (if m.sc = big then "inf" else Printf.sprintf "%.1f" m.sc)
    m.co
    (if m.so = big then "inf" else Printf.sprintf "%.1f" m.so)
