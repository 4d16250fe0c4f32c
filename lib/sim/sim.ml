module Netlist = Hlts_netlist.Netlist
module Fault = Hlts_fault.Fault
module Obs = Hlts_obs

(* Compact levelized gate encoding: struct-of-arrays over the topological
   order, so the sweeps touch int arrays instead of gate records with
   list-pattern dispatch. kind codes below; in1/in2 are -1 when unused. *)
type ops = {
  n_gates : int;
  kind : int array;
  in0 : int array;
  in1 : int array;
  in2 : int array;
  out : int array;
}

let k_and = 0
let k_or = 1
let k_nand = 2
let k_nor = 3
let k_xor = 4
let k_xnor = 5
let k_not = 6
let k_buf = 7
let k_mux2 = 8

(* Per-net output cone (sequential closure): the gates and nets a faulty
   value originating at the site net can ever reach, including feedback
   through flip-flops across any number of clock cycles. *)
type cone = {
  cn_gates : int array;    (* indexes into the levelized order, ascending *)
  cn_pos : int array;      (* the PO nets of the cone, in po_nets order *)
  cn_bits : Bytes.t;       (* bitset over nets: can this net carry a fault effect? *)
  cn_dffs : int array;     (* ids of the flip-flops whose Q is in the cone, ascending *)
}

type t = {
  c : Netlist.t;
  order : Netlist.gate array;  (* levelized *)
  po_nets : int array;
  pi_nets : int array;
  gate_driven : bool array;    (* net -> driven by a gate (vs PI/Q/const) *)
  ops : ops;
  driver_ix : int array;       (* net -> levelized gate index, or -1 *)
  dff_of_q : int array;        (* net -> dff id whose Q it is, or -1 *)
  fan_idx : int array;         (* CSR: net -> slice of fan_gates *)
  fan_gates : int array;       (* reader gate indexes (levelized) *)
  dfan_idx : int array;        (* CSR: net -> slice of dfan_dffs *)
  dfan_dffs : int array;       (* dff ids reading the net as D *)
  cones : (int, cone) Hashtbl.t;  (* lazily built, memoized per net *)
}

let levelize (c : Netlist.t) =
  (* Kahn over gate-to-gate dependencies; PI/const/Q nets are sources. *)
  let driver_gate = Hashtbl.create 256 in
  Array.iter (fun g -> Hashtbl.replace driver_gate g.Netlist.output g) c.Netlist.gates;
  let indeg = Array.make (Array.length c.Netlist.gates) 0 in
  let dependents = Array.make (Array.length c.Netlist.gates) [] in
  Array.iteri
    (fun gi g ->
      List.iter
        (fun net ->
          match Hashtbl.find_opt driver_gate net with
          | Some pred ->
            indeg.(gi) <- indeg.(gi) + 1;
            dependents.(pred.Netlist.g_id) <-
              gi :: dependents.(pred.Netlist.g_id)
          | None -> ())
        g.Netlist.inputs)
    c.Netlist.gates;
  let queue = Queue.create () in
  Array.iteri (fun gi d -> if d = 0 then Queue.add gi queue) indeg;
  let order = ref [] in
  let placed = ref 0 in
  while not (Queue.is_empty queue) do
    let gi = Queue.pop queue in
    order := c.Netlist.gates.(gi) :: !order;
    incr placed;
    List.iter
      (fun dep ->
        indeg.(dep) <- indeg.(dep) - 1;
        if indeg.(dep) = 0 then Queue.add dep queue)
      dependents.(gi)
  done;
  if !placed <> Array.length c.Netlist.gates then
    invalid_arg "Sim.compile: combinational cycle";
  Array.of_list (List.rev !order)

let kind_code = function
  | Netlist.G_and -> k_and
  | Netlist.G_or -> k_or
  | Netlist.G_nand -> k_nand
  | Netlist.G_nor -> k_nor
  | Netlist.G_xor -> k_xor
  | Netlist.G_xnor -> k_xnor
  | Netlist.G_not -> k_not
  | Netlist.G_buf -> k_buf
  | Netlist.G_mux2 -> k_mux2

let make_ops order =
  let n = Array.length order in
  let kind = Array.make n 0
  and in0 = Array.make n (-1)
  and in1 = Array.make n (-1)
  and in2 = Array.make n (-1)
  and out = Array.make n (-1) in
  Array.iteri
    (fun gi g ->
      kind.(gi) <- kind_code g.Netlist.kind;
      out.(gi) <- g.Netlist.output;
      (match g.Netlist.inputs with
      | [ a ] -> in0.(gi) <- a
      | [ a; b ] ->
        in0.(gi) <- a;
        in1.(gi) <- b
      | [ a; b; c ] ->
        in0.(gi) <- a;
        in1.(gi) <- b;
        in2.(gi) <- c
      | _ -> invalid_arg "Sim.compile: corrupt gate arity"))
    order;
  { n_gates = n; kind; in0; in1; in2; out }

(* CSR adjacency from nets to their readers, in ascending reader order. *)
let make_csr n_nets count fill =
  let deg = Array.make n_nets 0 in
  count (fun net -> deg.(net) <- deg.(net) + 1);
  let idx = Array.make (n_nets + 1) 0 in
  for i = 0 to n_nets - 1 do
    idx.(i + 1) <- idx.(i) + deg.(i)
  done;
  let cursor = Array.copy idx in
  let cells = Array.make idx.(n_nets) 0 in
  fill (fun net reader ->
      cells.(cursor.(net)) <- reader;
      cursor.(net) <- cursor.(net) + 1);
  (idx, cells)

let compile c =
  let order = levelize c in
  let ops = make_ops order in
  let po_nets =
    Array.of_list (List.concat_map (fun (_, bus) -> bus) c.Netlist.pos)
  in
  let pi_nets =
    Array.of_list (List.concat_map (fun (_, bus) -> bus) c.Netlist.pis)
  in
  let gate_driven = Array.make c.Netlist.n_nets false in
  Array.iter (fun g -> gate_driven.(g.Netlist.output) <- true) c.Netlist.gates;
  let driver_ix = Array.make c.Netlist.n_nets (-1) in
  Array.iteri (fun gi g -> driver_ix.(g.Netlist.output) <- gi) order;
  let dff_of_q = Array.make c.Netlist.n_nets (-1) in
  Array.iter (fun (f : Netlist.dff) -> dff_of_q.(f.Netlist.q_output) <- f.Netlist.d_id)
    c.Netlist.dffs;
  let fan_idx, fan_gates =
    make_csr c.Netlist.n_nets
      (fun bump ->
        Array.iter (fun g -> List.iter bump g.Netlist.inputs) order)
      (fun put ->
        Array.iteri (fun gi g -> List.iter (fun net -> put net gi) g.Netlist.inputs)
          order)
  in
  let dfan_idx, dfan_dffs =
    make_csr c.Netlist.n_nets
      (fun bump ->
        Array.iter (fun (f : Netlist.dff) -> bump f.Netlist.d_input) c.Netlist.dffs)
      (fun put ->
        Array.iter (fun (f : Netlist.dff) -> put f.Netlist.d_input f.Netlist.d_id)
          c.Netlist.dffs)
  in
  {
    c; order; po_nets; pi_nets; gate_driven; ops; driver_ix; dff_of_q;
    fan_idx; fan_gates; dfan_idx; dfan_dffs;
    cones = Hashtbl.create 64;
  }

let circuit t = t.c
let po_nets t = t.po_nets
let pi_nets t = t.pi_nets
let ops t = t.ops
let driver_index t = t.driver_ix
let dff_of_q t = t.dff_of_q
let fanout_gates t = (t.fan_idx, t.fan_gates)
let fanout_dffs t = (t.dfan_idx, t.dfan_dffs)

(* --- cone index -------------------------------------------------------- *)

let bit_mem bits net = Char.code (Bytes.get bits (net lsr 3)) land (1 lsl (net land 7)) <> 0

let bit_set bits net =
  let i = net lsr 3 in
  Bytes.set bits i (Char.chr (Char.code (Bytes.get bits i) lor (1 lsl (net land 7))))

let build_cone t net =
  let n = t.c.Netlist.n_nets in
  let bits = Bytes.make ((n + 7) / 8) '\000' in
  let gate_mark = Array.make t.ops.n_gates false in
  let dff_mark = Array.make (Array.length t.c.Netlist.dffs) false in
  let stack = ref [ net ] in
  bit_set bits net;
  while !stack <> [] do
    let x = List.hd !stack in
    stack := List.tl !stack;
    for i = t.fan_idx.(x) to t.fan_idx.(x + 1) - 1 do
      let gi = t.fan_gates.(i) in
      if not gate_mark.(gi) then begin
        gate_mark.(gi) <- true;
        let out = t.ops.out.(gi) in
        if not (bit_mem bits out) then begin
          bit_set bits out;
          stack := out :: !stack
        end
      end
    done;
    for i = t.dfan_idx.(x) to t.dfan_idx.(x + 1) - 1 do
      let d = t.dfan_dffs.(i) in
      if not dff_mark.(d) then begin
        dff_mark.(d) <- true;
        let q = t.c.Netlist.dffs.(d).Netlist.q_output in
        if not (bit_mem bits q) then begin
          bit_set bits q;
          stack := q :: !stack
        end
      end
    done
  done;
  let gates = ref [] in
  for gi = t.ops.n_gates - 1 downto 0 do
    if gate_mark.(gi) then gates := gi :: !gates
  done;
  let pos = Array.of_list (List.filter (bit_mem bits) (Array.to_list t.po_nets)) in
  let dffs =
    Array.to_list t.c.Netlist.dffs
    |> List.filter (fun (d : Netlist.dff) -> bit_mem bits d.Netlist.q_output)
    |> List.map (fun (d : Netlist.dff) -> d.Netlist.d_id)
    |> Array.of_list
  in
  let cone =
    { cn_gates = Array.of_list !gates; cn_pos = pos; cn_bits = bits; cn_dffs = dffs }
  in
  Obs.sample "sim.cone_gates" (float_of_int (Array.length cone.cn_gates));
  cone

let cone t net =
  match Hashtbl.find_opt t.cones net with
  | Some c -> c
  | None ->
    let c = build_cone t net in
    Hashtbl.replace t.cones net c;
    c

let cone_bits c = c.cn_bits
let cone_gates c = c.cn_gates
let cone_pos c = c.cn_pos
let cone_dffs c = c.cn_dffs

(* --- machines ---------------------------------------------------------- *)

type machine = {
  values : int64 array;
  state : int64 array;
}

let machine t =
  {
    values = Array.make t.c.Netlist.n_nets 0L;
    state = Array.make (Array.length t.c.Netlist.dffs) 0L;
  }

let set_bus t m name words =
  let bus = List.assoc name t.c.Netlist.pis in
  List.iter2 (fun net w -> m.values.(net) <- w) bus words

let eval ?fault t m =
  let fault_net, fault_word =
    match fault with
    | None -> (-1, 0L)
    | Some f ->
      ( f.Fault.f_net,
        match f.Fault.f_stuck with
        | Fault.Stuck_at_0 -> 0L
        | Fault.Stuck_at_1 -> -1L )
  in
  let v = m.values in
  v.(t.c.Netlist.const0) <- 0L;
  v.(t.c.Netlist.const1) <- -1L;
  Array.iter
    (fun (f : Netlist.dff) -> v.(f.Netlist.q_output) <- m.state.(f.Netlist.d_id))
    t.c.Netlist.dffs;
  (* force source nets (PI / Q / const) before the sweep; gate outputs
     are forced as they are produced below *)
  if fault_net >= 0 && not t.gate_driven.(fault_net) then
    v.(fault_net) <- fault_word;
  let { n_gates; kind; in0; in1; in2; out } = t.ops in
  for gi = 0 to n_gates - 1 do
    let value =
      match kind.(gi) with
      | 0 (* and *) -> Int64.logand v.(in0.(gi)) v.(in1.(gi))
      | 1 (* or *) -> Int64.logor v.(in0.(gi)) v.(in1.(gi))
      | 2 (* nand *) -> Int64.lognot (Int64.logand v.(in0.(gi)) v.(in1.(gi)))
      | 3 (* nor *) -> Int64.lognot (Int64.logor v.(in0.(gi)) v.(in1.(gi)))
      | 4 (* xor *) -> Int64.logxor v.(in0.(gi)) v.(in1.(gi))
      | 5 (* xnor *) -> Int64.lognot (Int64.logxor v.(in0.(gi)) v.(in1.(gi)))
      | 6 (* not *) -> Int64.lognot v.(in0.(gi))
      | 7 (* buf *) -> v.(in0.(gi))
      | _ (* mux2 *) ->
        let s = v.(in0.(gi)) in
        Int64.logor
          (Int64.logand (Int64.lognot s) v.(in1.(gi)))
          (Int64.logand s v.(in2.(gi)))
    in
    v.(out.(gi)) <- (if out.(gi) = fault_net then fault_word else value)
  done

let step t m =
  Array.iter
    (fun (f : Netlist.dff) -> m.state.(f.Netlist.d_id) <- m.values.(f.Netlist.d_input))
    t.c.Netlist.dffs

let read_bus t m name =
  let bus = List.assoc name t.c.Netlist.pos in
  List.map (fun net -> m.values.(net)) bus

let po_diff t m1 m2 =
  Array.fold_left
    (fun acc net -> Int64.logor acc (Int64.logxor m1.values.(net) m2.values.(net)))
    0L t.po_nets

let gate_count t = Array.length t.order

let levelized t = t.order

(* --- recorded good trajectory ------------------------------------------ *)

type trajectory = {
  tr_stimuli : (int * int64) list array;
  tr_values : int64 array array;  (* post-eval snapshot per cycle *)
}

let record t stimuli =
  let m = machine t in
  let cycles = Array.length stimuli in
  let values = Array.make cycles [||] in
  for i = 0 to cycles - 1 do
    List.iter (fun (net, w) -> m.values.(net) <- w) stimuli.(i);
    eval t m;
    values.(i) <- Array.copy m.values;
    step t m
  done;
  { tr_stimuli = stimuli; tr_values = values }

let trajectory_cycles tr = Array.length tr.tr_values
let trajectory_stimuli tr = tr.tr_stimuli
let trajectory_values tr i = tr.tr_values.(i)
