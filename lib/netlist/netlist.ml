type gate_kind =
  | G_and
  | G_or
  | G_nand
  | G_nor
  | G_xor
  | G_xnor
  | G_not
  | G_buf
  | G_mux2

type gate = {
  g_id : int;
  kind : gate_kind;
  inputs : int list;
  output : int;
}

type dff = {
  d_id : int;
  d_input : int;
  q_output : int;
}

type t = {
  n_nets : int;
  gates : gate array;
  dffs : dff array;
  const0 : int;
  const1 : int;
  pis : (string * int list) list;
  pos : (string * int list) list;
}

let arity = function
  | G_not | G_buf -> 1
  | G_and | G_or | G_nand | G_nor | G_xor | G_xnor -> 2
  | G_mux2 -> 3

let validate t =
  let err fmt = Format.kasprintf (fun m -> Error m) fmt in
  let driver = Array.make t.n_nets 0 in
  let drive net =
    if net < 0 || net >= t.n_nets then invalid_arg "net out of range";
    driver.(net) <- driver.(net) + 1
  in
  drive t.const0;
  drive t.const1;
  Array.iter (fun g -> drive g.output) t.gates;
  Array.iter (fun f -> drive f.q_output) t.dffs;
  List.iter (fun (_, bus) -> List.iter drive bus) t.pis;
  let multi = ref None in
  Array.iteri (fun net d -> if d > 1 && !multi = None then multi := Some net) driver;
  match !multi with
  | Some net -> err "net %d has multiple drivers" net
  | None ->
    let bad_arity =
      Array.exists (fun g -> List.length g.inputs <> arity g.kind) t.gates
    in
    if bad_arity then err "gate with wrong arity"
    else begin
      let undriven = ref None in
      let check_input net =
        if driver.(net) = 0 && !undriven = None then undriven := Some net
      in
      Array.iter (fun g -> List.iter check_input g.inputs) t.gates;
      Array.iter (fun f -> check_input f.d_input) t.dffs;
      List.iter (fun (_, bus) -> List.iter check_input bus) t.pos;
      match !undriven with
      | Some net -> err "net %d is read but never driven" net
      | None -> Ok ()
    end

let stats t =
  Printf.sprintf "%d gates, %d DFFs, %d nets, %d PI nets, %d PO nets"
    (Array.length t.gates) (Array.length t.dffs) t.n_nets
    (List.fold_left (fun acc (_, b) -> acc + List.length b) 0 t.pis)
    (List.fold_left (fun acc (_, b) -> acc + List.length b) 0 t.pos)

let simplify t =
  (* resolution of a net: itself, another net, or a constant *)
  let alias = Hashtbl.create 256 in
  let rec resolve net =
    match Hashtbl.find_opt alias net with
    | None -> net
    | Some net' ->
      let root = resolve net' in
      Hashtbl.replace alias net root;
      root
  in
  let c0 = t.const0 and c1 = t.const1 in
  (* gates stored mutably so a pass can rewrite a gate in place *)
  let live = Array.map (fun g -> Some g) t.gates in
  let changed = ref true in
  while !changed do
    changed := false;
    Array.iteri
      (fun i slot ->
        match slot with
        | None -> ()
        | Some g ->
          let ins = List.map resolve g.inputs in
          let kill target =
            Hashtbl.replace alias g.output target;
            live.(i) <- None;
            changed := true
          in
          let become kind inputs =
            live.(i) <- Some { g with kind; inputs };
            changed := true
          in
          let is0 net = net = c0 and is1 net = net = c1 in
          (match g.kind, ins with
          | G_buf, [ a ] -> kill a
          | G_not, [ a ] ->
            if is0 a then kill c1 else if is1 a then kill c0
          | G_and, [ a; b ] ->
            if is0 a || is0 b then kill c0
            else if is1 a then kill b
            else if is1 b then kill a
            else if a = b then kill a
          | G_or, [ a; b ] ->
            if is1 a || is1 b then kill c1
            else if is0 a then kill b
            else if is0 b then kill a
            else if a = b then kill a
          | G_nand, [ a; b ] ->
            if is0 a || is0 b then kill c1
            else if is1 a then become G_not [ b ]
            else if is1 b then become G_not [ a ]
            else if a = b then become G_not [ a ]
          | G_nor, [ a; b ] ->
            if is1 a || is1 b then kill c0
            else if is0 a then become G_not [ b ]
            else if is0 b then become G_not [ a ]
            else if a = b then become G_not [ a ]
          | G_xor, [ a; b ] ->
            if a = b then kill c0
            else if is0 a then kill b
            else if is0 b then kill a
            else if is1 a then become G_not [ b ]
            else if is1 b then become G_not [ a ]
          | G_xnor, [ a; b ] ->
            if a = b then kill c1
            else if is1 a then kill b
            else if is1 b then kill a
            else if is0 a then become G_not [ b ]
            else if is0 b then become G_not [ a ]
          | G_mux2, [ s; a; b ] ->
            if is0 s then kill a
            else if is1 s then kill b
            else if a = b then kill a
            else if is0 a && is1 b then kill s
            else if is1 a && is0 b then become G_not [ s ]
          | ( G_and | G_or | G_nand | G_nor | G_xor | G_xnor | G_not | G_buf
            | G_mux2 ), _ -> ());
          (* keep resolved inputs even when the gate survives *)
          match live.(i) with
          | Some g' when g'.inputs <> List.map resolve g'.inputs ->
            live.(i) <- Some { g' with inputs = List.map resolve g'.inputs };
            changed := true
          | Some _ | None -> ())
      live
  done;
  let gates =
    Array.of_list
      (List.filter_map
         (fun slot ->
           Option.map
             (fun g -> { g with inputs = List.map resolve g.inputs })
             slot)
         (Array.to_list live))
  in
  let gates = Array.mapi (fun i g -> { g with g_id = i }) gates in
  let dffs =
    Array.map (fun f -> { f with d_input = resolve f.d_input }) t.dffs
  in
  let pos = List.map (fun (name, bus) -> (name, List.map resolve bus)) t.pos in
  { t with gates; dffs; pos }

let full_scan t =
  let pis =
    t.pis
    @ List.mapi
        (fun i f -> (Printf.sprintf "scan_q%d" i, [ f.q_output ]))
        (Array.to_list t.dffs)
  in
  let pos =
    t.pos
    @ List.mapi
        (fun i f -> (Printf.sprintf "scan_d%d" i, [ f.d_input ]))
        (Array.to_list t.dffs)
  in
  { t with dffs = [||]; pis; pos }

let prune t =
  (* backward closure from the primary outputs *)
  let driver_gate = Hashtbl.create 256 in
  Array.iter (fun g -> Hashtbl.replace driver_gate g.output g) t.gates;
  let driver_dff = Hashtbl.create 64 in
  Array.iter (fun f -> Hashtbl.replace driver_dff f.q_output f) t.dffs;
  let live_net = Hashtbl.create 256 in
  let queue = Queue.create () in
  let mark net =
    if not (Hashtbl.mem live_net net) then begin
      Hashtbl.replace live_net net ();
      Queue.add net queue
    end
  in
  List.iter (fun (_, bus) -> List.iter mark bus) t.pos;
  while not (Queue.is_empty queue) do
    let net = Queue.pop queue in
    (match Hashtbl.find_opt driver_gate net with
    | Some g -> List.iter mark g.inputs
    | None -> ());
    match Hashtbl.find_opt driver_dff net with
    | Some f -> mark f.d_input
    | None -> ()
  done;
  let gates =
    Array.of_list
      (List.filteri (fun _ _ -> true)
         (List.filter (fun g -> Hashtbl.mem live_net g.output)
            (Array.to_list t.gates)))
  in
  let gates = Array.mapi (fun i g -> { g with g_id = i }) gates in
  let dffs =
    Array.of_list
      (List.filter (fun f -> Hashtbl.mem live_net f.q_output)
         (Array.to_list t.dffs))
  in
  let dffs = Array.mapi (fun i f -> { f with d_id = i }) dffs in
  { t with gates; dffs }

module Builder = struct
  type b = {
    mutable next_net : int;
    mutable gates : gate list;
    mutable n_gates : int;  (* [List.length gates], the next gate id *)
    mutable dffs : dff list;
    mutable n_dffs : int;  (* [List.length dffs], the next flip-flop id *)
    mutable pis : (string * int list) list;
    mutable pos : (string * int list) list;
    b_const0 : int;
    b_const1 : int;
  }

  let create () =
    { next_net = 2; gates = []; n_gates = 0; dffs = []; n_dffs = 0; pis = [];
      pos = []; b_const0 = 0; b_const1 = 1 }

  let fresh b =
    let n = b.next_net in
    b.next_net <- n + 1;
    n

  let fresh_bus b width = List.init width (fun _ -> fresh b)

  let const0 b = b.b_const0
  let const1 b = b.b_const1

  let add_gate b kind inputs output =
    b.gates <- { g_id = b.n_gates; kind; inputs; output } :: b.gates;
    b.n_gates <- b.n_gates + 1

  let add_dff b d_input q_output =
    b.dffs <- { d_id = b.n_dffs; d_input; q_output } :: b.dffs;
    b.n_dffs <- b.n_dffs + 1

  let gate b kind inputs =
    if List.length inputs <> arity kind then
      invalid_arg "Netlist.Builder.gate: arity";
    let output = fresh b in
    add_gate b kind inputs output;
    output

  let dff b d =
    let q = fresh b in
    add_dff b d q;
    q

  let input b name width =
    let bus = fresh_bus b width in
    b.pis <- (name, bus) :: b.pis;
    bus

  let declare_input b name bus = b.pis <- (name, bus) :: b.pis

  let drive b ~dst ~src = add_gate b G_buf [ src ] dst

  let output b name bus = b.pos <- (name, bus) :: b.pos

  let finish b =
    let t =
      {
        n_nets = b.next_net;
        gates = Array.of_list (List.rev b.gates);
        dffs = Array.of_list (List.rev b.dffs);
        const0 = b.b_const0;
        const1 = b.b_const1;
        pis = List.rev b.pis;
        pos = List.rev b.pos;
      }
    in
    match validate t with
    | Ok () -> t
    | Error msg -> invalid_arg ("Netlist.Builder.finish: " ^ msg)

  (* --- n-bit blocks --- *)

  let mux2_bus b ~sel xs ys =
    List.map2 (fun x y -> gate b G_mux2 [ sel; x; y ]) xs ys

  let rec mux_tree b sources =
    match sources with
    | [] -> invalid_arg "mux_tree: no sources"
    | [ s ] -> ([], s)
    | _ ->
      let sel = fresh b in
      (* pair up sources at this level *)
      let rec level = function
        | [] -> []
        | [ s ] -> [ s ]
        | x :: y :: rest -> mux2_bus b ~sel x y :: level rest
      in
      let sels, out = mux_tree b (level sources) in
      (sel :: sels, out)

  let full_adder b x y cin =
    let s1 = gate b G_xor [ x; y ] in
    let sum = gate b G_xor [ s1; cin ] in
    let c1 = gate b G_and [ x; y ] in
    let c2 = gate b G_and [ s1; cin ] in
    let cout = gate b G_or [ c1; c2 ] in
    (sum, cout)

  let ripple_adder b ~cin xs ys =
    let carry = ref cin in
    let sums =
      List.map2
        (fun x y ->
          let s, c = full_adder b x y !carry in
          carry := c;
          s)
        xs ys
    in
    (sums, !carry)

  let add_sub b ~sub xs ys =
    let ys' = List.map (fun y -> gate b G_xor [ y; sub ]) ys in
    ripple_adder b ~cin:sub xs ys'

  let less_than b xs ys =
    (* a < b  <=>  borrow out of a - b  <=>  not carry-out of a + ~b + 1 *)
    let ys' = List.map (fun y -> gate b G_not [ y ]) ys in
    let _, cout = ripple_adder b ~cin:(const1 b) xs ys' in
    gate b G_not [ cout ]

  let equal b xs ys =
    let eqs = List.map2 (fun x y -> gate b G_xnor [ x; y ]) xs ys in
    match eqs with
    | [] -> invalid_arg "equal: zero width"
    | first :: rest -> List.fold_left (fun acc e -> gate b G_and [ acc; e ]) first rest

  let multiplier b xs ys =
    let n = List.length xs in
    let xs = Array.of_list xs and ys = Array.of_list ys in
    (* row accumulation of partial products, truncated to n bits *)
    let acc = ref (Array.make n (const0 b)) in
    for j = 0 to n - 1 do
      let pp =
        Array.init n (fun i ->
            if i < j then const0 b
            else gate b G_and [ xs.(i - j); ys.(j) ])
      in
      if j = 0 then acc := pp
      else begin
        let sums, _ =
          ripple_adder b ~cin:(const0 b) (Array.to_list !acc) (Array.to_list pp)
        in
        acc := Array.of_list sums
      end
    done;
    Array.to_list !acc

  let bitwise b kind xs ys = List.map2 (fun x y -> gate b kind [ x; y ]) xs ys

  (* An enabled register holds Q when enable=0 and loads D when enable=1:
     per bit, DFF fed by mux2(enable, Q, D). The Q -> mux -> DFF loop is
     tied in two phases because nets have single drivers. *)
  let register b ~enable ds =
    (* phase 1: allocate DFFs with temporary feed nets *)
    let feeds = List.map (fun _ -> fresh b) ds in
    let qs =
      List.map
        (fun feed ->
          let q = fresh b in
          add_dff b feed q;
          q)
        feeds
    in
    (* phase 2: drive each feed net with mux(enable, q, d) via a buffer *)
    List.iter2
      (fun (feed, q) d ->
        let m = gate b G_mux2 [ enable; q; d ] in
        (* single-driver discipline: feed is driven by a buffer from m *)
        drive b ~dst:feed ~src:m)
      (List.combine feeds qs) ds;
    qs
end
