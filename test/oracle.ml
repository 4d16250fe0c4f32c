(* Reference implementations the property tests hold product code
   against: the per-fault fault simulation behind the product grader
   ({!Hlts_sim.Ppsfp}), the lookup-per-lane test packing behind
   [Atpg.pack_tests], PODEM's full-sweep steps and the rescans of the
   search state its sweeps keep, the list-scan
   definitions behind the indexed DFG, ETPN and floorplan views, the
   hashtable binding validator, the ETPN builder and hashtable
   testability analysis behind the
   schedule-free data-path view, the id-keyed ASAP behind the
   constraint set's dense levels, the per-query DFS behind its
   reachability index, the Prometheus reader that round-trips the
   metrics exposition, the Printf JSON encoder and parser behind the
   scanning codec, and the DFG digest and request key rendered anew on
   every call behind the memoized and buffered ones. Each is built from
   public APIs alone. The PODEM reference is the one that
   shares code with what it checks, by design: what it checks is the
   cone restriction, so it plugs full-sweep steps into the product
   search through [Podem.Test_hook] and keeps everything else. *)

module Sim = Hlts_sim.Sim
module Fault = Hlts_fault.Fault

(* No cone, no packing, no skipping: [m] is zeroed, then swept over the
   whole gate array every cycle of the recorded trajectory, comparing
   every PO against the good run. Returns the first (cycle, lane-diff
   word) with the diff restricted to [mask], or [None]; increments
   [evals] once per examined cycle. *)
let replay_full ?(mask = -1L) t (m : Sim.machine) (fault : Fault.t) tr ~evals =
  Array.fill m.Sim.values 0 (Array.length m.Sim.values) 0L;
  Array.fill m.Sim.state 0 (Array.length m.Sim.state) 0L;
  let cycles = Sim.trajectory_cycles tr in
  let stimuli = Sim.trajectory_stimuli tr in
  let pos = Sim.po_nets t in
  let rec cycle i =
    if i >= cycles then None
    else begin
      List.iter (fun (net, w) -> m.Sim.values.(net) <- w) stimuli.(i);
      Sim.eval ~fault t m;
      incr evals;
      let gv = Sim.trajectory_values tr i in
      let diff = ref 0L in
      for p = 0 to Array.length pos - 1 do
        let po = pos.(p) in
        diff := Int64.logor !diff (Int64.logxor m.Sim.values.(po) gv.(po))
      done;
      let d = Int64.logand mask !diff in
      if d <> 0L then Some (i, d)
      else begin
        Sim.step t m;
        cycle (i + 1)
      end
    end
  in
  cycle 0

(* --- test packing by lookup ------------------------------------------- *)

(* [Atpg.pack_tests] as it was before it built each cycle's words in one
   pass: for every (cycle, PI, lane), a [List.assoc_opt] of the PI in
   that lane's frame. *)
let pack_tests sim (tests : Hlts_atpg.Podem.test list) =
  let pis = Array.to_list (Sim.pi_nets sim) in
  let depth =
    List.fold_left
      (fun acc t -> max acc (Array.length t.Hlts_atpg.Podem.t_frames))
      0 tests
  in
  let lane_tests = Array.of_list tests in
  let stimuli =
    Array.init depth (fun cycle ->
        List.map
          (fun net ->
            let word = ref 0L in
            Array.iteri
              (fun lane (t : Hlts_atpg.Podem.test) ->
                if cycle < Array.length t.t_frames then begin
                  match List.assoc_opt net t.t_frames.(cycle) with
                  | Some true ->
                    word := Int64.logor !word (Int64.shift_left 1L lane)
                  | Some false | None -> ()
                end)
              lane_tests;
            (net, !word))
          pis)
  in
  Sim.record sim stimuli

(* --- PODEM without the cone restriction -------------------------------- *)

module Netlist = Hlts_netlist.Netlist
module Hook = Hlts_atpg.Podem.Test_hook

(* three-valued logic on 0 / 1 / 2=X *)
let x = 2
let t_not a = if a = x then x else 1 - a
let t_and a b = if a = 0 || b = 0 then 0 else if a = 1 && b = 1 then 1 else x
let t_or a b = if a = 1 || b = 1 then 1 else if a = 0 && b = 0 then 0 else x
let t_xor a b = if a = x || b = x then x else a lxor b

let t_mux s a b =
  if s = 0 then a else if s = 1 then b else if a = b && a <> x then a else x

(* D or D-bar at plane entry [i]: both planes defined and different *)
let carries_d (v : Hook.view) i =
  v.Hook.gv.(i) <> x && v.Hook.fv.(i) <> x && v.Hook.gv.(i) <> v.Hook.fv.(i)

(* From-scratch scans of the state PODEM's sweeps keep, over the planes
   of one view: is levelized gate [gi] of frame [f] in the D-frontier
   (output X in either plane, a D on some input)? how many (frame, PO
   list entry) pairs carry a D? in how many frames is the good site
   value the opposite of the stuck value? *)
let podem_frontier sim (v : Hook.view) f gi =
  let g = (Sim.levelized sim).(gi) in
  let base = f * v.Hook.n in
  let out = base + g.Netlist.output in
  (v.Hook.gv.(out) = x || v.Hook.fv.(out) = x)
  && List.exists (fun net -> carries_d v (base + net)) g.Netlist.inputs

let podem_detections sim (v : Hook.view) =
  let count = ref 0 in
  for f = 0 to v.Hook.frames - 1 do
    Array.iter
      (fun po -> if carries_d v ((f * v.Hook.n) + po) then incr count)
      (Sim.po_nets sim)
  done;
  !count

let podem_activations (v : Hook.view) =
  List.length
    (List.filter
       (fun f -> v.Hook.gv.((f * v.Hook.n) + v.Hook.site) = 1 - v.Hook.sv)
       (List.init v.Hook.frames Fun.id))

(* Full-sweep steps for [Podem.Test_hook.generate]: both planes are
   recomputed over every gate of every frame, every PO of every frame is
   scanned, and the D-frontier is collected over the whole circuit
   before the first objective whose backtrace reaches an undecided PI is
   taken. *)
let podem_full_steps sim : Hook.steps =
  let c = Sim.circuit sim in
  let order = Sim.levelized sim in
  let pis = Sim.pi_nets sim in
  let sweep (v : Hook.view) =
    let gv = v.Hook.gv and fv = v.Hook.fv in
    for f = 0 to v.Hook.frames - 1 do
      let base = f * v.Hook.n in
      let load net g fl =
        gv.(base + net) <- g;
        fv.(base + net) <- fl
      in
      load c.Netlist.const0 0 0;
      load c.Netlist.const1 1 1;
      Array.iter
        (fun net -> load net v.Hook.asg.(base + net) v.Hook.asg.(base + net))
        pis;
      Array.iter
        (fun (d : Netlist.dff) ->
          if f = 0 then load d.Netlist.q_output x x
          else begin
            let prev = ((f - 1) * v.Hook.n) + d.Netlist.d_input in
            load d.Netlist.q_output gv.(prev) fv.(prev)
          end)
        c.Netlist.dffs;
      (* forcing a gate-driven site here too is harmless: its driver
         overwrites it below, before any reader sees it *)
      fv.(base + v.Hook.site) <- v.Hook.sv;
      Array.iter
        (fun (g : Netlist.gate) ->
          let out = base + g.Netlist.output in
          let eval p =
            match g.Netlist.kind, g.Netlist.inputs with
            | Netlist.G_not, [ a ] -> t_not p.(base + a)
            | Netlist.G_buf, [ a ] -> p.(base + a)
            | Netlist.G_and, [ a; b ] -> t_and p.(base + a) p.(base + b)
            | Netlist.G_or, [ a; b ] -> t_or p.(base + a) p.(base + b)
            | Netlist.G_nand, [ a; b ] -> t_not (t_and p.(base + a) p.(base + b))
            | Netlist.G_nor, [ a; b ] -> t_not (t_or p.(base + a) p.(base + b))
            | Netlist.G_xor, [ a; b ] -> t_xor p.(base + a) p.(base + b)
            | Netlist.G_xnor, [ a; b ] -> t_not (t_xor p.(base + a) p.(base + b))
            | Netlist.G_mux2, [ s; a; b ] ->
              t_mux p.(base + s) p.(base + a) p.(base + b)
            | _ -> invalid_arg "Oracle.podem_full_steps: corrupt gate"
          in
          gv.(out) <- eval gv;
          fv.(out) <- (if g.Netlist.output = v.Hook.site then v.Hook.sv else eval fv))
        order
    done
  in
  let detect v = podem_detections sim v > 0 in
  (* D-frontier objectives, best first: gates with a D on an input and
     X on their output, latest frame and deepest level first; each asks
     for its non-controlling value on its first X input (mux: the
     select routing the D) *)
  let objectives (v : Hook.view) =
    let gv = v.Hook.gv in
    let acc = ref [] in
    for f = 0 to v.Hook.frames - 1 do
      let base = f * v.Hook.n in
      Array.iteri
        (fun gi (g : Netlist.gate) ->
          let d net = carries_d v (base + net) in
          if podem_frontier sim v f gi then begin
            let first_x value =
              List.find_opt (fun net -> gv.(base + net) = x) g.Netlist.inputs
              |> Option.map (fun net -> (net, value))
            in
            let pick =
              match g.Netlist.kind, g.Netlist.inputs with
              | (Netlist.G_and | Netlist.G_nand), _ -> first_x 1
              | (Netlist.G_or | Netlist.G_nor | Netlist.G_xor | Netlist.G_xnor), _
                -> first_x 0
              | (Netlist.G_not | Netlist.G_buf), _ -> None
              | Netlist.G_mux2, [ s; a; b ] ->
                if gv.(base + s) = x then
                  Some (s, if (not (d a)) && d b then 1 else 0)
                else if gv.(base + s) = 0 && gv.(base + a) = x then Some (a, 0)
                else if gv.(base + s) = 1 && gv.(base + b) = x then Some (b, 0)
                else None
              | Netlist.G_mux2, _ -> None
            in
            Option.iter (fun (net, value) -> acc := (f, net, value) :: !acc) pick
          end)
        order
    done;
    !acc
  in
  let dfrontier v ~backtrace =
    let rec first = function
      | [] -> -1
      | (f, net, value) :: rest ->
        let d = backtrace f net value in
        if d >= 0 then d else first rest
    in
    first (objectives v)
  in
  let activated (v : Hook.view) =
    List.exists
      (fun f -> carries_d v ((f * v.Hook.n) + v.Hook.site))
      (List.init v.Hook.frames Fun.id)
  in
  { Hook.sweep; detect; activated; dfrontier }

(* --- list-scan definitions of the indexed design views ---------------- *)

module Dfg = Hlts_dfg.Dfg
module Etpn = Hlts_etpn.Etpn
module Binding = Hlts_alloc.Binding
module Floorplan = Hlts_floorplan.Floorplan
module Module_library = Hlts_floorplan.Module_library

(* --- the recursive ASAP and the DFS reachability ------------------------ *)

module Constraints = Hlts_sched.Constraints

(* ASAP as [Basic.asap] computed it before the constraint set levelled
   itself by dense index: a memoized recursion over [Constraints.preds]
   by op id, one step past the latest predecessor. It finds cycles
   itself (an operation reached again while its own step is pending)
   rather than asking the set's reachability index. Steps are indexed
   like [Constraints.levels], by position in the DFG's [ops]; [None] on
   a cycle. *)
let asap cons =
  let steps = Hashtbl.create 16 and pending = Hashtbl.create 16 in
  let exception Cycle in
  let rec step_of id =
    match Hashtbl.find_opt steps id with
    | Some s -> s
    | None ->
      if Hashtbl.mem pending id then raise Cycle;
      Hashtbl.replace pending id ();
      let s =
        1
        + List.fold_left
            (fun acc p -> max acc (step_of p))
            0 (Constraints.preds cons id)
      in
      Hashtbl.replace steps id s;
      s
  in
  match List.map (fun o -> step_of o.Dfg.id) (Constraints.dfg cons).Dfg.ops with
  | steps -> Some (Array.of_list steps)
  | exception Cycle -> None

(* [Constraints.reachable] before the reachability index: a fresh DFS
   over [Constraints.succs] per query. *)
let reachable_dfs cons a b =
  let visited = Hashtbl.create 16 in
  let rec dfs x =
    if x = b then true
    else if Hashtbl.mem visited x then false
    else begin
      Hashtbl.add visited x ();
      List.exists dfs (Constraints.succs cons x)
    end
  in
  dfs a

(* [Dfg.uses_of_value]: a filter over the op list. *)
let uses_of_value dfg v =
  let matches = function
    | Dfg.Input name, Dfg.V_input name' -> String.equal name name'
    | Dfg.Op id, Dfg.V_op id' -> id = id'
    | (Dfg.Input _ | Dfg.Const _ | Dfg.Op _), (Dfg.V_input _ | Dfg.V_op _) ->
      false
  in
  let reads o =
    let a, b = o.Dfg.args in
    matches (a, v) || matches (b, v)
  in
  List.filter_map
    (fun o -> if reads o then Some o.Dfg.id else None)
    dfg.Dfg.ops

let is_output dfg v = List.mem (Dfg.value_name dfg v) dfg.Dfg.outputs

(* --- the ETPN as the list-scan builder made it -------------------------- *)

module Op = Hlts_dfg.Op
module Schedule = Hlts_sched.Schedule
module Lifetime = Hlts_alloc.Lifetime
module Testability = Hlts_testability.Testability

(* --- binding validation by hashtable ------------------------------------ *)

(* [Binding.validate] before it counted holders by position: holder
   counts in polymorphic hashtables over sorted, deduplicated keys, and
   lifetimes from [Lifetime.of_schedule], one [uses_of_value] and
   [is_output] per value. Every check runs; the first error wins. *)
let binding_validate dfg sched t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let values = Dfg.values dfg in
  let tally count keys =
    let tbl = Hashtbl.create 64 in
    List.iter
      (fun holder ->
        List.iter
          (fun k ->
            Hashtbl.replace tbl k
              (1 + Option.value ~default:0 (Hashtbl.find_opt tbl k)))
          (List.sort_uniq compare (keys holder)))
      count;
    fun k -> Option.value ~default:0 (Hashtbl.find_opt tbl k)
  in
  let reg_count = tally t.Binding.registers (fun r -> r.Binding.reg_values) in
  let fu_count = tally t.Binding.fus (fun fu -> fu.Binding.fu_ops) in
  let interval_tbl = Hashtbl.create 64 in
  List.iter
    (fun (v, iv) -> Hashtbl.replace interval_tbl v iv)
    (Lifetime.of_schedule dfg sched);
  let check_value v =
    match reg_count v with
    | 1 -> Ok ()
    | n -> err "value %s in %d registers" (Dfg.value_name dfg v) n
  in
  let check_op o =
    match fu_count o.Dfg.id with
    | 1 -> Ok ()
    | n -> err "op N%d in %d units" o.Dfg.id n
  in
  let check_register reg =
    let intervals =
      List.map
        (fun v ->
          match Hashtbl.find_opt interval_tbl v with
          | Some iv -> iv
          | None -> Lifetime.interval_of dfg sched v)
        reg.Binding.reg_values
    in
    if Lifetime.disjoint_set intervals then Ok ()
    else err "register %d holds overlapping lifetimes" reg.Binding.reg_id
  in
  let check_fu fu =
    let kinds =
      List.map (fun id -> (Dfg.op_by_id dfg id).Dfg.kind) fu.Binding.fu_ops
    in
    if not (List.for_all (Op.supports fu.Binding.fu_class) kinds) then
      err "unit %d class does not support all its operations" fu.Binding.fu_id
    else begin
      let steps = List.map (Schedule.step sched) fu.Binding.fu_ops in
      if List.length (List.sort_uniq compare steps) <> List.length steps then
        err "unit %d runs two operations in one step" fu.Binding.fu_id
      else Ok ()
    end
  in
  let rec first_error = function
    | [] -> Ok ()
    | Ok () :: rest -> first_error rest
    | (Error _ as e) :: _ -> e
  in
  first_error
    (List.map check_value values
    @ List.map check_op dfg.Dfg.ops
    @ List.map check_register t.Binding.registers
    @ List.map check_fu t.Binding.fus)

(* An ETPN's nodes and guarded arcs, without the control net. *)
type design = {
  nodes : (int * Etpn.node) list;
  arcs : Etpn.arc list;
  steps : int;  (* schedule length *)
}

let of_etpn e =
  {
    nodes = e.Etpn.nodes;
    arcs = e.Etpn.arcs;
    steps = Schedule.length e.Etpn.schedule;
  }

(* The ETPN builder before the data-path view was split out: checks,
   then node ids handed out as the walk needs them, register and unit
   of every value and op found by [Binding]'s list scans, raw guarded
   transfers grouped by (src, dst, port). *)
let etpn_build dfg schedule binding =
  if not (Schedule.respects dfg schedule) then
    Error "schedule violates data dependencies"
  else
    match Binding.validate dfg schedule binding with
    | Error _ as e -> e
    | Ok () ->
      let next = ref 0 in
      let nodes = ref [] in
      let fresh n =
        let id = !next in
        incr next;
        nodes := (id, n) :: !nodes;
        id
      in
      let reg_node = Hashtbl.create 16 in
      List.iter
        (fun r -> Hashtbl.replace reg_node r.Binding.reg_id (fresh (Etpn.Reg r)))
        binding.Binding.registers;
      let fu_node = Hashtbl.create 16 in
      List.iter
        (fun fu -> Hashtbl.replace fu_node fu.Binding.fu_id (fresh (Etpn.Fu fu)))
        binding.Binding.fus;
      let const_node = Hashtbl.create 8 in
      let const_id c =
        match Hashtbl.find_opt const_node c with
        | Some id -> id
        | None ->
          let id = fresh (Etpn.Const c) in
          Hashtbl.replace const_node c id;
          id
      in
      let reg_of_value v =
        Hashtbl.find reg_node (Binding.reg_of_value binding v).Binding.reg_id
      in
      let fu_of_op id =
        Hashtbl.find fu_node (Binding.fu_of_op binding id).Binding.fu_id
      in
      let raw = ref [] in
      let arc src dst port guard = raw := (src, dst, port, guard) :: !raw in
      List.iter
        (fun name ->
          let v = Dfg.V_input name in
          let load_step = (Lifetime.interval_of dfg schedule v).Lifetime.birth - 1 in
          let p = fresh (Etpn.Port_in name) in
          arc p (reg_of_value v) None load_step)
        dfg.Dfg.inputs;
      let operand_src = function
        | Dfg.Const c -> const_id c
        | Dfg.Input name -> reg_of_value (Dfg.V_input name)
        | Dfg.Op id -> reg_of_value (Dfg.V_op id)
      in
      List.iter
        (fun o ->
          let s = Schedule.step schedule o.Dfg.id in
          let fu = fu_of_op o.Dfg.id in
          let a, b = o.Dfg.args in
          arc (operand_src a) fu (Some Etpn.P_left) s;
          arc (operand_src b) fu (Some Etpn.P_right) s;
          if Op.is_comparison o.Dfg.kind then
            arc fu (fresh (Etpn.Cond_out o.Dfg.id)) None s
          else arc fu (reg_of_value (Dfg.V_op o.Dfg.id)) None s)
        dfg.Dfg.ops;
      let out_guard = Schedule.length schedule + 1 in
      List.iter
        (fun name ->
          let v = Option.get (Dfg.value_of_name dfg name) in
          let p = fresh (Etpn.Port_out name) in
          arc (reg_of_value v) p None out_guard)
        dfg.Dfg.outputs;
      let arcs =
        List.map
          (fun ((a_src, a_dst, a_port), transfers) ->
            {
              Etpn.a_src;
              a_dst;
              a_port;
              a_guards =
                List.sort_uniq compare (List.map (fun (_, _, _, g) -> g) transfers);
            })
          (Hlts_util.Listx.group_by (fun (s, d, p, _) -> (s, d, p)) !raw)
      in
      Ok
        {
          nodes = List.sort compare !nodes;
          arcs;
          steps = Schedule.length schedule;
        }

(* The [Etpn] accessors as scans of [nodes] and [arcs]. *)
let etpn_node d id = List.assoc id d.nodes
let etpn_in_arcs d id = List.filter (fun a -> a.Etpn.a_dst = id) d.arcs
let etpn_out_arcs d id = List.filter (fun a -> a.Etpn.a_src = id) d.arcs

let etpn_node_id_of_reg d reg_id =
  let matches (_, n) =
    match n with Etpn.Reg r -> r.Binding.reg_id = reg_id | _ -> false
  in
  fst (List.find matches d.nodes)

let etpn_node_id_of_fu d fu_id =
  let matches (_, n) =
    match n with Etpn.Fu fu -> fu.Binding.fu_id = fu_id | _ -> false
  in
  fst (List.find matches d.nodes)

let etpn_interconnect d =
  let normalize a = (min a.Etpn.a_src a.Etpn.a_dst, max a.Etpn.a_src a.Etpn.a_dst) in
  List.sort_uniq compare (List.map normalize d.arcs)

let etpn_add_observation_point d ~reg_id =
  let reg_node = etpn_node_id_of_reg d reg_id in
  let fresh = 1 + List.fold_left (fun acc (id, _) -> max acc id) 0 d.nodes in
  let port = Etpn.Port_out (Printf.sprintf "tp_r%d" reg_id) in
  let arc =
    {
      Etpn.a_src = reg_node;
      a_dst = fresh;
      a_port = None;
      a_guards = List.init (d.steps + 2) Fun.id;
    }
  in
  { d with nodes = d.nodes @ [ (fresh, port) ]; arcs = d.arcs @ [ arc ] }

(* The testability analysis over hashtables, with every in-arc and
   out-arc list a scan and every node's measures folded on demand.
   Returns [Testability.node_measures] of the analysis. *)
let testability_node_measures d =
  let big = infinity in
  let ctf = function
    | Op.Fu_adder | Op.Fu_subtractor | Op.Fu_alu -> 0.95
    | Op.Fu_multiplier -> 0.65
    | Op.Fu_comparator -> 0.55
    | Op.Fu_logic -> 0.80
  in
  let otf = function
    | Op.Fu_adder | Op.Fu_subtractor | Op.Fu_alu -> 0.95
    | Op.Fu_multiplier -> 0.60
    | Op.Fu_comparator -> 0.45
    | Op.Fu_logic -> 0.75
  in
  let register_factor = 0.98 and const_cc = 0.15 and cond_co = 0.85 in
  let out_cc = Hashtbl.create 64 and out_sc = Hashtbl.create 64 in
  let node_co = Hashtbl.create 64 and node_so = Hashtbl.create 64 in
  List.iter
    (fun (id, n) ->
      let cc0, sc0 =
        match n with
        | Etpn.Port_in _ -> (1.0, 0.0)
        | Etpn.Const _ -> (const_cc, 0.0)
        | _ -> (0.0, big)
      in
      let co0, so0 =
        match n with
        | Etpn.Port_out _ -> (1.0, 0.0)
        | Etpn.Cond_out _ -> (cond_co, 0.0)
        | _ -> (0.0, big)
      in
      Hashtbl.replace out_cc id cc0;
      Hashtbl.replace out_sc id sc0;
      Hashtbl.replace node_co id co0;
      Hashtbl.replace node_so id so0)
    d.nodes;
  let cc_of id = Hashtbl.find out_cc id and sc_of id = Hashtbl.find out_sc id in
  let co_of id = Hashtbl.find node_co id and so_of id = Hashtbl.find node_so id in
  let port_cc srcs = List.fold_left (fun acc s -> max acc (cc_of s)) 0.0 srcs in
  let port_sc srcs = List.fold_left (fun acc s -> min acc (sc_of s)) big srcs in
  let fu_port_sources id p =
    List.filter_map
      (fun a -> if a.Etpn.a_port = Some p then Some a.Etpn.a_src else None)
      (etpn_in_arcs d id)
  in
  let sources id = List.map (fun a -> a.Etpn.a_src) (etpn_in_arcs d id) in
  let forward_once () =
    let changed = ref false in
    let update id cc sc =
      if cc > cc_of id +. 1e-12 then (Hashtbl.replace out_cc id cc; changed := true);
      if sc < sc_of id -. 1e-12 then (Hashtbl.replace out_sc id sc; changed := true)
    in
    List.iter
      (fun (id, n) ->
        match n with
        | Etpn.Reg _ ->
          let srcs = sources id in
          if srcs <> [] then
            update id (register_factor *. port_cc srcs) (1.0 +. port_sc srcs)
        | Etpn.Fu fu ->
          let left = fu_port_sources id Etpn.P_left in
          let right = fu_port_sources id Etpn.P_right in
          if left <> [] && right <> [] then
            update id
              (ctf fu.Binding.fu_class *. min (port_cc left) (port_cc right))
              (max (port_sc left) (port_sc right))
        | Etpn.Cond_out _ | Etpn.Port_out _ ->
          let srcs = sources id in
          if srcs <> [] then update id (port_cc srcs) (port_sc srcs)
        | Etpn.Port_in _ | Etpn.Const _ -> ())
      d.nodes;
    !changed
  in
  let arc_obs a =
    let dst = a.Etpn.a_dst in
    match etpn_node d dst with
    | Etpn.Port_out _ -> (1.0, 0.0)
    | Etpn.Cond_out _ -> (cond_co, 0.0)
    | Etpn.Reg _ -> (register_factor *. co_of dst, 1.0 +. so_of dst)
    | Etpn.Fu fu -> (
      let other_port =
        match a.Etpn.a_port with
        | Some Etpn.P_left -> Some Etpn.P_right
        | Some Etpn.P_right -> Some Etpn.P_left
        | None -> None
      in
      match other_port with
      | None -> (0.0, big)
      | Some p ->
        let other = fu_port_sources dst p in
        ( otf fu.Binding.fu_class *. co_of dst *. port_cc other,
          so_of dst +. port_sc other ))
    | Etpn.Port_in _ | Etpn.Const _ -> (0.0, big)
  in
  let backward_once () =
    let changed = ref false in
    let update id co so =
      if co > co_of id +. 1e-12 then (Hashtbl.replace node_co id co; changed := true);
      if so < so_of id -. 1e-12 then (Hashtbl.replace node_so id so; changed := true)
    in
    List.iter
      (fun (id, n) ->
        match n with
        | Etpn.Port_out _ | Etpn.Cond_out _ -> ()
        | Etpn.Port_in _ | Etpn.Const _ | Etpn.Reg _ | Etpn.Fu _ ->
          let arcs = etpn_out_arcs d id in
          if arcs <> [] then
            update id
              (List.fold_left (fun acc a -> max acc (fst (arc_obs a))) 0.0 arcs)
              (List.fold_left (fun acc a -> min acc (snd (arc_obs a))) big arcs))
      d.nodes;
    !changed
  in
  let rec run pass budget = if budget > 0 && pass () then run pass (budget - 1) in
  let rounds = (4 * List.length d.nodes) + 16 in
  run forward_once rounds;
  run backward_once rounds;
  fun id ->
    let cc, sc =
      match sources id with
      | [] -> (cc_of id, sc_of id)
      | srcs ->
        ( List.fold_left (fun acc s -> max acc (cc_of s)) 0.0 srcs,
          List.fold_left (fun acc s -> min acc (sc_of s)) big srcs )
    in
    { Testability.cc; sc; co = co_of id; so = so_of id }

(* The O(n^2) floorplanner: hashtables per plan, and a frontier rebuilt
   from every occupied cell on every placement, sorted, then searched
   with [min_by] (first minimum wins). [Floorplan.plan] must reproduce
   it bit for bit. *)
let floorplan_block_area d ~bits id in_arcs =
  let own =
    match etpn_node d id with
    | Etpn.Reg _ -> Module_library.reg_area ~bits
    | Etpn.Fu fu -> Module_library.fu_area fu.Binding.fu_class ~bits
    | Etpn.Port_in _ | Etpn.Port_out _ | Etpn.Cond_out _ | Etpn.Const _ ->
      Module_library.port_area
  in
  let mux =
    let by_port = Hlts_util.Listx.group_by (fun a -> a.Etpn.a_port) in_arcs in
    List.fold_left
      (fun acc (_, arcs) ->
        acc
        +. float_of_int (max 0 (List.length arcs - 1))
           *. Module_library.mux_slice_area ~bits)
      0.0 by_port
  in
  own +. mux

let floorplan_plan d ~bits =
  let ids = List.map fst d.nodes in
  let connections = etpn_interconnect d in
  let degree_tbl = Hashtbl.create 64 in
  let adj = Hashtbl.create 64 in
  let note id n =
    Hashtbl.replace degree_tbl id
      (1 + Option.value ~default:0 (Hashtbl.find_opt degree_tbl id));
    Hashtbl.replace adj id (n :: Option.value ~default:[] (Hashtbl.find_opt adj id))
  in
  List.iter
    (fun (a, b) -> if a = b then note a b else (note a b; note b a))
    connections;
  let degree id = Option.value ~default:0 (Hashtbl.find_opt degree_tbl id) in
  let neighbours id = Option.value ~default:[] (Hashtbl.find_opt adj id) in
  let order =
    List.sort (fun a b -> compare (degree b, a) (degree a, b)) ids
  in
  let areas =
    List.map
      (fun id -> (id, floorplan_block_area d ~bits id (etpn_in_arcs d id)))
      ids
  in
  let cell_area = Hlts_util.Listx.sum_by snd areas in
  let pitch = sqrt (cell_area /. float_of_int (max 1 (List.length ids))) in
  let occupied = Hashtbl.create 64 in
  let slot_of = Hashtbl.create 64 in
  let place id (i, j) =
    Hashtbl.replace occupied (i, j) id;
    Hashtbl.replace slot_of id (i, j)
  in
  let frontier () =
    let cells = Hashtbl.fold (fun cell _ acc -> cell :: acc) occupied [] in
    let around (i, j) =
      [ (i + 1, j); (i - 1, j); (i, j + 1); (i, j - 1) ]
    in
    List.sort_uniq compare
      (List.filter
         (fun c -> not (Hashtbl.mem occupied c))
         (List.concat_map around cells))
  in
  let wire_to id (i, j) =
    Hlts_util.Listx.sum_by
      (fun n ->
        match Hashtbl.find_opt slot_of n with
        | None -> 0.0
        | Some (ni, nj) -> float_of_int (abs (i - ni) + abs (j - nj)))
      (neighbours id)
  in
  let place_next id =
    if Hashtbl.length occupied = 0 then place id (0, 0)
    else
      match Hlts_util.Listx.min_by (fun c -> wire_to id c) (frontier ()) with
      | Some c -> place id c
      | None -> assert false (* the frontier of a non-empty grid *)
  in
  List.iter place_next order;
  let center id =
    let i, j = Hashtbl.find slot_of id in
    (float_of_int i *. pitch, float_of_int j *. pitch)
  in
  let wire_cost =
    Hlts_util.Listx.sum_by
      (fun a ->
        let x1, y1 = center a.Etpn.a_src and x2, y2 = center a.Etpn.a_dst in
        let len = abs_float (x1 -. x2) +. abs_float (y1 -. y2) in
        let wid =
          match etpn_node d a.Etpn.a_dst with
          | Etpn.Cond_out _ -> Module_library.wire_width ~bits:1
          | Etpn.Reg _ | Etpn.Fu _ | Etpn.Port_in _ | Etpn.Port_out _
          | Etpn.Const _ -> Module_library.wire_width ~bits
        in
        len *. wid)
      d.arcs
  in
  {
    Floorplan.cell_area;
    wire_cost;
    total = cell_area +. wire_cost;
    placement = List.map (fun id -> (id, center id)) ids;
  }

(* --- the Prometheus exposition reader ---------------------------------- *)

(* A minimal reader for the text exposition format, enough to
   round-trip what [Hlts_obs.Metrics.expose] writes: comment ([#]) and
   blank lines are skipped, every other line must be
   [name[{label="value",...}] value [timestamp]]. [parse] returns the
   samples in file order. *)
module Prometheus = struct
  type sample = {
    m_name : string;
    m_labels : (string * string) list;
    m_value : float;
  }

  let parse_line line =
    let n = String.length line in
    let i = ref 0 in
    let fail msg = Error msg in
    let skip_sp () = while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do incr i done in
    let name_char c =
      match c with
      | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | ':' -> true
      | _ -> false
    in
    let read_name () =
      let start = !i in
      while !i < n && name_char line.[!i] do incr i done;
      String.sub line start (!i - start)
    in
    let m_name = read_name () in
    if m_name = "" then fail "expected metric name"
    else begin
      let labels = ref [] in
      let label_err = ref None in
      if !i < n && line.[!i] = '{' then begin
        incr i;
        let rec labels_loop () =
          skip_sp ();
          if !i < n && line.[!i] = '}' then incr i
          else begin
            let k = read_name () in
            if k = "" || !i + 1 >= n || line.[!i] <> '=' || line.[!i + 1] <> '"'
            then label_err := Some "bad label"
            else begin
              i := !i + 2;
              let buf = Buffer.create 16 in
              let rec str_loop () =
                if !i >= n then label_err := Some "unterminated label value"
                else
                  match line.[!i] with
                  | '"' -> incr i
                  | '\\' when !i + 1 < n ->
                    (match line.[!i + 1] with
                    | 'n' -> Buffer.add_char buf '\n'
                    | c -> Buffer.add_char buf c);
                    i := !i + 2;
                    str_loop ()
                  | c ->
                    Buffer.add_char buf c;
                    incr i;
                    str_loop ()
              in
              str_loop ();
              if !label_err = None then begin
                labels := (k, Buffer.contents buf) :: !labels;
                skip_sp ();
                if !i < n && line.[!i] = ',' then begin
                  incr i;
                  labels_loop ()
                end
                else if !i < n && line.[!i] = '}' then incr i
                else label_err := Some "expected , or } in labels"
              end
            end
          end
        in
        labels_loop ()
      end;
      match !label_err with
      | Some msg -> fail msg
      | None ->
        skip_sp ();
        let value_str = String.sub line !i (n - !i) |> String.trim in
        (* the value may be followed by an optional timestamp *)
        let value_str =
          match String.index_opt value_str ' ' with
          | Some sp -> String.sub value_str 0 sp
          | None -> value_str
        in
        let v =
          match value_str with
          | "+Inf" -> Some infinity
          | "-Inf" -> Some neg_infinity
          | "NaN" -> Some nan
          | s -> float_of_string_opt s
        in
        (match v with
        | None -> fail (Printf.sprintf "bad sample value %S" value_str)
        | Some m_value -> Ok { m_name; m_labels = List.rev !labels; m_value })
    end

  let parse text =
    let lines = String.split_on_char '\n' text in
    List.fold_left
      (fun acc line ->
        match acc with
        | Error _ -> acc
        | Ok samples ->
          let line = String.trim line in
          if line = "" || line.[0] = '#' then acc
          else begin
            match parse_line line with
            | Ok s -> Ok (s :: samples)
            | Error msg -> Error (Printf.sprintf "%s: %s" msg line)
          end)
      (Ok []) lines
    |> Result.map List.rev
end

(* --- the Printf JSON codec ------------------------------------------------ *)

(* The JSON encoder and parser [Hlts_obs.Json] had before its scanner
   and run-copying escaper, kept as the byte reference for the codec
   properties: same bytes out, same [Ok] trees and [Error] texts in. *)
module Json_ref = struct
  open Hlts_obs.Json

  (* Shortest decimal rendering that round-trips the float exactly, so
     encodings are unique and byte-comparable. Shared by the JSON
     emitter and the Prometheus exposition. *)
  let float_repr f =
    let s = Printf.sprintf "%.12g" f in
    if float_of_string s = f then s
    else begin
      let s15 = Printf.sprintf "%.15g" f in
      if float_of_string s15 = f then s15 else Printf.sprintf "%.17g" f
    end

  let escape buf s =
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s

  let rec emit buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> begin
      match Float.classify_float f with
      | FP_nan | FP_infinite -> Buffer.add_string buf "null"
      | FP_normal | FP_subnormal | FP_zero -> Buffer.add_string buf (float_repr f)
    end
    | Str s ->
      Buffer.add_char buf '"';
      escape buf s;
      Buffer.add_char buf '"'
    | List l ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i v ->
          if i > 0 then Buffer.add_char buf ',';
          emit buf v)
        l;
      Buffer.add_char buf ']'
    | Obj fields ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          escape buf k;
          Buffer.add_string buf "\":";
          emit buf v)
        fields;
      Buffer.add_char buf '}'

  let to_string v =
    let buf = Buffer.create 256 in
    emit buf v;
    Buffer.contents buf

  exception Parse of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail fmt =
      Printf.ksprintf (fun m -> raise (Parse (Printf.sprintf "%s at %d" m !pos))) fmt
    in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while !pos < n && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false) do
        advance ()
      done
    in
    let expect c =
      match peek () with
      | Some c' when c' = c -> advance ()
      | _ -> fail "expected %c" c
    in
    let literal word v =
      if !pos + String.length word <= n && String.sub s !pos (String.length word) = word
      then begin
        pos := !pos + String.length word;
        v
      end
      else fail "bad literal"
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string"
        else
          match s.[!pos] with
          | '"' -> advance ()
          | '\\' ->
            advance ();
            (if !pos >= n then fail "bad escape"
             else
               match s.[!pos] with
               | '"' -> Buffer.add_char buf '"'; advance ()
               | '\\' -> Buffer.add_char buf '\\'; advance ()
               | '/' -> Buffer.add_char buf '/'; advance ()
               | 'b' -> Buffer.add_char buf '\b'; advance ()
               | 'f' -> Buffer.add_char buf '\012'; advance ()
               | 'n' -> Buffer.add_char buf '\n'; advance ()
               | 'r' -> Buffer.add_char buf '\r'; advance ()
               | 't' -> Buffer.add_char buf '\t'; advance ()
               | 'u' ->
                 advance ();
                 if !pos + 4 > n then fail "bad \\u escape";
                 (* exactly four hex digits: no sign, blank or
                    underscore *)
                 let hex c =
                   match c with
                   | '0' .. '9' -> Char.code c - Char.code '0'
                   | 'a' .. 'f' -> Char.code c - Char.code 'a' + 10
                   | 'A' .. 'F' -> Char.code c - Char.code 'A' + 10
                   | _ -> fail "bad \\u escape"
                 in
                 let code = ref 0 in
                 for i = 0 to 3 do
                   code := (!code lsl 4) lor hex s.[!pos + i]
                 done;
                 let code = !code in
                 pos := !pos + 4;
                 (* BMP code points as UTF-8; enough for anything the
                    emitter produces *)
                 if code < 0x80 then Buffer.add_char buf (Char.chr code)
                 else if code < 0x800 then begin
                   Buffer.add_char buf (Char.chr (0xC0 lor (code lsr 6)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
                 else begin
                   Buffer.add_char buf (Char.chr (0xE0 lor (code lsr 12)));
                   Buffer.add_char buf (Char.chr (0x80 lor ((code lsr 6) land 0x3F)));
                   Buffer.add_char buf (Char.chr (0x80 lor (code land 0x3F)))
                 end
               | c -> fail "bad escape \\%c" c);
            loop ()
          | c -> Buffer.add_char buf c; advance (); loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do advance () done;
      let lit = String.sub s start (!pos - start) in
      if String.exists (fun c -> c = '.' || c = 'e' || c = 'E') lit then
        match float_of_string_opt lit with
        | Some f -> Float f
        | None -> fail "bad number %s" lit
      else
        match int_of_string_opt lit with
        | Some i -> Int i
        | None -> fail "bad number %s" lit
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end"
      | Some '"' -> Str (parse_string ())
      | Some 'n' -> literal "null" Null
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin advance (); List [] end
        else begin
          let rec items acc =
            let v = parse_value () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); items (v :: acc)
            | Some ']' -> advance (); List (List.rev (v :: acc))
            | _ -> fail "expected , or ]"
          in
          items []
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin advance (); Obj [] end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            (k, parse_value ())
          in
          let rec fields acc =
            let f = field () in
            skip_ws ();
            match peek () with
            | Some ',' -> advance (); fields (f :: acc)
            | Some '}' -> advance (); Obj (List.rev (f :: acc))
            | _ -> fail "expected , or }"
          in
          fields []
        end
      | Some c -> if is_start_of_number c then parse_number () else fail "unexpected %c" c
    and is_start_of_number c =
      match c with '0' .. '9' | '-' -> true | _ -> false
    in
    match parse_value () with
    | v ->
      skip_ws ();
      if !pos <> n then Error (Printf.sprintf "trailing garbage at %d" !pos)
      else Ok v
    | exception Parse msg -> Error msg
end

let json_to_string = Json_ref.to_string
let json_of_string = Json_ref.of_string

(* --- the DFG digest, rendered on every call ------------------------------ *)

(* [Dfg.digest] as it was before it was memoized on the design value:
   the normal form rendered and hashed anew on each call. *)
let dfg_digest (t : Dfg.t) =
  let open Dfg in
  let buf = Buffer.create 256 in
  Buffer.add_string buf "dfg/1;in:";
  List.iter
    (fun i ->
      Buffer.add_string buf i;
      Buffer.add_char buf ',')
    t.inputs;
  Buffer.add_string buf ";ops:";
  let operand = function
    | Input name -> "i" ^ name
    | Const c -> "c" ^ string_of_int c
    | Op id -> "r" ^ string_of_int id
  in
  List.iter
    (fun o ->
      let a, b = o.args in
      Buffer.add_string buf
        (Printf.sprintf "%d:%s:%s:%s:%s;" o.id (Op.symbol o.kind) (operand a)
           (operand b) o.result))
    (List.sort (fun a b -> compare a.id b.id) t.ops);
  Buffer.add_string buf ";out:";
  List.iter
    (fun o ->
      Buffer.add_string buf o;
      Buffer.add_char buf ',')
    t.outputs;
  Digest.to_hex (Digest.string (Buffer.contents buf))

(* --- request keys through Printf ----------------------------------------- *)

module Engine = Hlts_eval.Engine
module Synth = Hlts_synth.Synth

(* [Engine.spec_digest] as it was when Printf rendered its key: [%h]
   floats, [%d] ints, [%b] bools. The engine schema tag is written
   out here, so a schema bump must update it too. *)
let spec_digest ~op ?(with_atpg = true) (s : Engine.spec) =
  let p = s.Engine.params and c = s.Engine.atpg in
  let strategy =
    match p.Synth.strategy with
    | Hlts_synth.Candidates.Balance -> "balance"
    | Hlts_synth.Candidates.Connectivity -> "connectivity"
  and stop =
    match p.Synth.stop with
    | Synth.Cost_improving -> "cost_improving"
    | Synth.Exhaustive -> "exhaustive"
  in
  let params_key =
    Printf.sprintf
      "k=%d;alpha=%h;beta=%h;pbits=%d;strategy=%s;stop=%s;lat=%h;maxit=%d"
      p.Synth.k p.Synth.alpha p.Synth.beta p.Synth.bits strategy stop
      p.Synth.latency_factor p.Synth.max_iterations
  and atpg_key =
    Printf.sprintf
      "seed=%d;lanes=%d;cycles=%d;batches=%d;frames=%d;backtracks=%d;collapse=%b"
      c.Hlts_atpg.Atpg.seed c.random_lanes c.random_cycles c.random_batches
      c.max_frames c.max_backtracks c.collapse_gate_inputs
  in
  Digest.to_hex
    (Digest.string
       (Printf.sprintf "%s;op=%s;dfg=%s;approach=%s;bits=%d;%s%s"
          "hlts-engine/2" op (dfg_digest s.Engine.dfg)
          (Hlts_synth.Flows.approach_name s.Engine.approach)
          s.Engine.bits params_key
          (if with_atpg then ";" ^ atpg_key else "")))
