module Dfg = Hlts_dfg.Dfg
module Op = Hlts_dfg.Op
module Schedule = Hlts_sched.Schedule

type register = {
  reg_id : int;
  reg_values : Dfg.value list;
}

type fu = {
  fu_id : int;
  fu_class : Op.fu_class;
  fu_ops : int list;
}

type t = {
  registers : register list;
  fus : fu list;
}

let default dfg =
  let registers =
    List.mapi (fun i v -> { reg_id = i; reg_values = [ v ] }) (Dfg.values dfg)
  in
  let fus =
    List.mapi
      (fun i o ->
        {
          fu_id = i;
          fu_class = List.hd (Op.classes_for o.Dfg.kind);
          fu_ops = [ o.Dfg.id ];
        })
      dfg.Dfg.ops
  in
  { registers; fus }

let left_edge ?(prefer_io = false) dfg sched =
  let lifetimes = Lifetime.of_schedule dfg sched in
  let interval v = List.assoc v lifetimes in
  let is_io v =
    match v with
    | Dfg.V_input _ -> true
    | Dfg.V_op _ -> Dfg.is_output dfg v
  in
  let order =
    List.sort
      (fun (_, i1) (_, i2) ->
        compare
          (i1.Lifetime.birth, i1.Lifetime.death)
          (i2.Lifetime.birth, i2.Lifetime.death))
      lifetimes
  in
  let place regs (v, _) =
    let fits reg =
      Lifetime.disjoint_set (List.map interval (v :: reg.reg_values))
    in
    let has_io reg = List.exists is_io reg.reg_values in
    (* Lee's allocation rule 1 (prefer_io): keep every register anchored
       to at least one primary-input/-output variable — I/O values seed
       I/O-free registers, internal values join I/O-anchored ones. *)
    let preference reg =
      if not prefer_io then 0
      else if is_io v then (if has_io reg then 1 else 0)
      else if has_io reg then 0
      else 1
    in
    let candidates =
      List.filter_map
        (fun reg -> if fits reg then Some (preference reg, reg.reg_id) else None)
        regs
    in
    match List.sort compare candidates with
    | [] -> regs @ [ { reg_id = List.length regs; reg_values = [ v ] } ]
    | (_, best_id) :: _ ->
      List.map
        (fun reg ->
          if reg.reg_id = best_id then
            { reg with reg_values = reg.reg_values @ [ v ] }
          else reg)
        regs
  in
  let regs = List.fold_left place [] order in
  (* Renumber and order stored values by definition time. *)
  List.mapi
    (fun i reg ->
      let values =
        List.sort
          (fun a b ->
            compare (interval a).Lifetime.birth (interval b).Lifetime.birth)
          reg.reg_values
      in
      { reg_id = i; reg_values = values })
    regs

let bind_modules dfg sched =
  let ops_in_order =
    List.sort
      (fun a b ->
        compare (Schedule.step sched a.Dfg.id, a.Dfg.id)
          (Schedule.step sched b.Dfg.id, b.Dfg.id))
      dfg.Dfg.ops
  in
  let place fus o =
    let step = Schedule.step sched o.Dfg.id in
    let kinds_of fu =
      List.map (fun id -> (Dfg.op_by_id dfg id).Dfg.kind) fu.fu_ops
    in
    let fits fu =
      let no_clash =
        List.for_all (fun id -> Schedule.step sched id <> step) fu.fu_ops
      in
      no_clash && Op.shared_class (o.Dfg.kind :: kinds_of fu) <> None
    in
    let rec insert = function
      | [] ->
        [
          {
            fu_id = List.length fus;
            fu_class = List.hd (Op.classes_for o.Dfg.kind);
            fu_ops = [ o.Dfg.id ];
          };
        ]
      | fu :: rest ->
        if fits fu then
          let ops = fu.fu_ops @ [ o.Dfg.id ] in
          let cls =
            Option.get
              (Op.shared_class
                 (List.map (fun id -> (Dfg.op_by_id dfg id).Dfg.kind) ops))
          in
          { fu with fu_class = cls; fu_ops = ops } :: rest
        else fu :: insert rest
    in
    insert fus
  in
  let fus = List.fold_left place [] ops_in_order in
  List.mapi (fun i fu -> { fu with fu_id = i }) fus

let allocate ?prefer_io dfg sched =
  { registers = left_edge ?prefer_io dfg sched; fus = bind_modules dfg sched }

let reg_of_value t v = List.find (fun r -> List.mem v r.reg_values) t.registers

let fu_of_op t id = List.find (fun fu -> List.mem id fu.fu_ops) t.fus

let validate dfg sched t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  (* Runs on every merge attempt, so everything is tabulated by
     position (values in [Dfg.values] order, ops in [ops] order) in int
     arrays, and the checks stop at the first error. *)
  let n_ops = List.length dfg.Dfg.ops in
  let steps = Array.make n_ops 0 in
  List.iteri (fun i o -> steps.(i) <- Schedule.step sched o.Dfg.id) dfg.Dfg.ops;
  let lifetimes = Lifetime.of_steps dfg ~length:(Schedule.length sched) steps in
  (* holders of each position, a holder naming a key twice counted once *)
  let tally n holders keys pos =
    let count = Array.make n 0 and last = Array.make n (-1) in
    List.iteri
      (fun h holder ->
        List.iter
          (fun k ->
            let p = pos k in
            if p >= 0 && last.(p) <> h then begin
              last.(p) <- h;
              count.(p) <- count.(p) + 1
            end)
          (keys holder))
      holders;
    count
  in
  let reg_count =
    tally (Array.length lifetimes) t.registers (fun r -> r.reg_values)
      (Dfg.value_pos dfg)
  in
  let fu_count = tally n_ops t.fus (fun fu -> fu.fu_ops) (Dfg.op_pos dfg) in
  let first_bad count =
    let rec go p =
      if p = Array.length count then -1 else if count.(p) <> 1 then p else go (p + 1)
    in
    go 0
  in
  let interval v =
    let p = Dfg.value_pos dfg v in
    if p >= 0 then lifetimes.(p) else Lifetime.interval_of dfg sched v
  in
  (* pairwise, as [Lifetime.disjoint_set] decides it: no interval is
     empty *)
  let rec disjoint = function
    | [] -> true
    | v :: rest ->
      let a = interval v in
      List.for_all (fun w -> not (Lifetime.overlap a (interval w))) rest
      && disjoint rest
  in
  let check_register reg =
    if disjoint reg.reg_values then Ok ()
    else err "register %d holds overlapping lifetimes" reg.reg_id
  in
  let step id =
    let p = Dfg.op_pos dfg id in
    if p < 0 then raise Not_found else steps.(p)
  in
  let rec distinct_steps = function
    | [] -> true
    | id :: rest ->
      let s = step id in
      List.for_all (fun id' -> step id' <> s) rest && distinct_steps rest
  in
  let check_fu fu =
    if
      not
        (List.for_all
           (fun id -> Op.supports fu.fu_class (Dfg.op_by_id dfg id).Dfg.kind)
           fu.fu_ops)
    then err "unit %d class does not support all its operations" fu.fu_id
    else if not (distinct_steps fu.fu_ops) then
      err "unit %d runs two operations in one step" fu.fu_id
    else Ok ()
  in
  let rec first_error check = function
    | [] -> Ok ()
    | x :: rest -> (
      match check x with Ok () -> first_error check rest | Error _ as e -> e)
  in
  let bad_value = first_bad reg_count and bad_op = first_bad fu_count in
  if bad_value >= 0 then
    err "value %s in %d registers"
      (Dfg.value_name dfg (List.nth (Dfg.values dfg) bad_value))
      reg_count.(bad_value)
  else if bad_op >= 0 then
    err "op N%d in %d units" (List.nth dfg.Dfg.ops bad_op).Dfg.id fu_count.(bad_op)
  else
    match first_error check_register t.registers with
    | Error _ as e -> e
    | Ok () -> first_error check_fu t.fus

let pp dfg ppf t =
  Format.fprintf ppf "@[<v>";
  List.iter
    (fun fu ->
      Format.fprintf ppf "(%s): %s@,"
        (Op.class_name fu.fu_class)
        (String.concat ", " (List.map (Printf.sprintf "N%d") fu.fu_ops)))
    t.fus;
  List.iter
    (fun reg ->
      Format.fprintf ppf "R%d: %s@," reg.reg_id
        (String.concat ", " (List.map (Dfg.value_name dfg) reg.reg_values)))
    t.registers;
  Format.fprintf ppf "@]"
